"""Per-op references that the fused kernels must match bit for bit.

``unrolled_lstm``/``unrolled_bilstm`` unroll :meth:`LSTMCell.forward`
through the autograd engine step by step, collecting hidden states with
``Tensor.stack`` and joining directions with ``Tensor.concatenate``;
``per_op_cross_entropy`` chains ``nll_loss(log_softmax(.))``, once per model
when the logits carry a leading model axis.  Their signatures match the
methods they stand in for, so ``patch_per_op`` can monkeypatch them in.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.nn import functional as F
from repro.nn.recurrent import LSTM, BiLSTM
from repro.nn.tensor import Tensor


def unrolled_lstm(lstm: LSTM, inputs: Tensor, *, reverse: bool = False) -> Tensor:
    cell = lstm.cell
    seq_len, batch = inputs.shape[0], inputs.shape[-2]
    state = cell.initial_state(batch)
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    outputs: list[Tensor | None] = [None] * seq_len
    for t in order:
        h, c = cell(inputs[t], state)
        state = (h, c)
        outputs[t] = h
    return Tensor.stack(outputs, axis=0)


def unrolled_bilstm(bilstm: BiLSTM, inputs: Tensor) -> Tensor:
    fwd = unrolled_lstm(bilstm.forward_lstm, inputs)
    bwd = unrolled_lstm(bilstm.backward_lstm, inputs, reverse=True)
    return Tensor.concatenate([fwd, bwd], axis=-1)


def per_op_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    if logits.ndim == 2:
        return F.nll_loss(F.log_softmax(logits, axis=-1), targets)
    return Tensor.stack([per_op_cross_entropy(logits[m], targets) for m in range(len(logits.data))])


def patch_per_op(monkeypatch, calls: Counter) -> None:
    """Route ``BiLSTM.forward`` and ``functional.cross_entropy`` to the
    references above, counting calls under ``"bilstm"`` and ``"loss"``."""

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(BiLSTM, "forward", counted("bilstm", unrolled_bilstm))
    monkeypatch.setattr(F, "cross_entropy", counted("loss", per_op_cross_entropy))
