"""Recurrent layers: LSTM cell, unidirectional LSTM, and BiLSTM.

The paper's NER model is a single-layer BiLSTM (Akbik et al., 2018) over
fixed word embeddings, optionally followed by a CRF.

:class:`LSTMCell` is the per-step op on the autograd engine.  :class:`LSTM`
and :class:`BiLSTM` do not unroll it: each forward pass is one fused graph
node.  Its forward is a scan that advances every direction in lockstep over
stacked ``(models, directions, batch, ...)`` arrays; its backward is a
hand-written backpropagation-through-time pass.  At this scale (sentences
of tens of tokens, hidden sizes of 8-32) a step's arithmetic is cheaper
than creating the dozen tensors an unrolled step needs, so the fused node
is several times faster.

Every layer takes an optional ``models=M``: its parameters then carry a
leading model axis, each copy initialised like the single layer, and its
inputs are ``(seq_len, M, batch, input_dim)``.  The downstream models use
it to train ``M`` taggers in lockstep (:mod:`repro.models.trainer`); a
plain layer is the scan's ``M = 1`` case.

The fused node is bit-identical to unrolling :meth:`LSTMCell.forward`
through the engine, and each model's slice to a single-model layer:
outputs and every gradient, in float32 (what the models run) as in
float64.  The scan evaluates the cell's numpy
expressions in the cell's order (one sigmoid over the whole gate block
equals per-gate sigmoids, and a stacked matmul makes the same BLAS call
for each model and direction slice).  The backward pass accumulates each parameter's
gradient one step at a time, in reverse processing order, as the engine's
topological walk does; bias gradients are per-step batch sums, not one sum
over all steps.  The input projection is deliberately not hoisted into one
``(seq_len * batch, input_dim) @ w_x`` product: BLAS picks its kernel by
shape (a batch of one is a matrix-vector product), so one tall product does
not round like the per-step products, and on some shapes the results
differ in the last bit.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module, _init_weight
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import check_random_state

__all__ = ["LSTMCell", "LSTM", "BiLSTM"]


class LSTMCell(Module):
    """A standard LSTM cell with coupled input/forget/cell/output gates.

    With ``models=M`` the cell holds ``M`` copies of its parameters on a
    leading model axis (each initialised like the single cell) and steps
    ``(M, batch, input_dim)`` inputs.
    """

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0, models: int | None = None):
        super().__init__()
        rng = check_random_state(seed)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.models = models
        # Stack the four gates into single matrices for fewer matmuls.
        w_x = _init_weight(rng, input_dim, 4 * hidden_dim)
        w_h = _init_weight(rng, hidden_dim, 4 * hidden_dim)
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        # Positive forget-gate bias, the usual trick for trainability.
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        if models is not None:
            w_x, w_h = (np.repeat(w[None], models, axis=0) for w in (w_x, w_h))
            bias = np.repeat(bias[None, None], models, axis=0)      # (M, 1, 4H)
        self.w_x = Tensor(w_x, requires_grad=True)
        self.w_h = Tensor(w_h, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """One step: ``x`` is ``([models,] batch, input_dim)``; returns ``(h, c)``."""
        h_prev, c_prev = state
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        H = self.hidden_dim
        i = gates[..., 0:H].sigmoid()
        f = gates[..., H : 2 * H].sigmoid()
        g = gates[..., 2 * H : 3 * H].tanh()
        o = gates[..., 3 * H : 4 * H].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        shape = (batch_size, self.hidden_dim)
        if self.models is not None:
            shape = (self.models,) + shape
        return Tensor(np.zeros(shape, dtype=np.float32)), Tensor(np.zeros(shape, dtype=np.float32))


def _lstm_scan(inputs: Tensor, cells: tuple[LSTMCell, ...], reverse: tuple[bool, ...]) -> Tensor:
    """Run ``cells`` over ``inputs`` in lockstep as one graph node.

    ``inputs`` is ``(seq_len, batch, input_dim)``, or ``(seq_len, models,
    batch, input_dim)`` for cells with a model axis; cell ``k`` reads it back
    to front when ``reverse[k]``.  Returns the hidden states of every cell
    concatenated on the last axis: ``(seq_len, [models,] batch, len(cells) *
    hidden)``.  Arrays below carry a model axis ``M`` (1 for plain cells)
    ahead of the direction axis, and are indexed by processing step ``s``,
    not time step.  The scan computes in the dtype its operands promote to:
    float32 for the layers' own parameters and float32 inputs.
    """
    stacked = cells[0].models is not None
    x = inputs.data if stacked else inputs.data[:, None]          # (T, M, B, D)
    seq_len, M, batch = x.shape[0], x.shape[1], x.shape[2]
    H = cells[0].hidden_dim
    n_dir = len(cells)
    w_x = np.stack([cell.w_x.data.reshape(M, -1, 4 * H) for cell in cells], axis=1)
    w_h = np.stack([cell.w_h.data.reshape(M, H, 4 * H) for cell in cells], axis=1)
    bias = np.stack([cell.bias.data.reshape(M, 1, 4 * H) for cell in cells], axis=1)
    # w_x: (M, n_dir, D, 4H); w_h: (M, n_dir, H, 4H); bias: (M, n_dir, 1, 4H).
    dtype = np.result_type(x, w_x, w_h, bias)
    params = tuple(p for cell in cells for p in (cell.w_x, cell.w_h, cell.bias))
    parents = (inputs, *params)
    grad_enabled = is_grad_enabled() and any(p.requires_grad for p in parents)
    # xs[s]: every direction's input at step s, (M, n_dir, B, D), arranged
    # once: the reversed directions read the inputs back to front.
    xs = np.stack([x[::-1] if r else x for r in reverse], axis=2)

    # hs[s + 1]: hidden state after step s; hs[0]: the zero state.  Only the
    # backward pass reads the gate activations acts[s] (sigmoid(i),
    # sigmoid(f), tanh(g), sigmoid(o)), tcs[s] (tanh(c)) and the cell states
    # cs[s]; without one, a single step of each is kept, and cs alternates
    # between two rows.
    kept = seq_len if grad_enabled else 1
    hs = np.zeros((seq_len + 1, M, n_dir, batch, H), dtype)
    cs = np.zeros((kept + 1, M, n_dir, batch, H), dtype)
    acts = np.empty((kept, M, n_dir, batch, 4 * H), dtype)
    tcs = np.empty((kept, M, n_dir, batch, H), dtype)
    for s in range(seq_len):
        k = s if grad_enabled else 0
        c_prev, c = (cs[s], cs[s + 1]) if grad_enabled else (cs[s % 2], cs[1 - s % 2])
        gates = xs[s] @ w_x + hs[s] @ w_h + bias
        act = acts[k]
        # np.minimum(np.maximum(.)) is np.clip's result, without its overhead.
        np.divide(1.0, 1.0 + np.exp(-np.minimum(np.maximum(gates, -60), 60)), out=act)
        act[..., 2 * H : 3 * H] = np.tanh(gates[..., 2 * H : 3 * H])
        np.add(act[..., H : 2 * H] * c_prev, act[..., 0:H] * act[..., 2 * H : 3 * H], out=c)
        np.tanh(c, out=tcs[k])
        np.multiply(act[..., 3 * H : 4 * H], tcs[k], out=hs[s + 1])

    out = np.empty((seq_len, M, batch, n_dir * H), dtype)
    for k, r in enumerate(reverse):
        out[..., k * H : (k + 1) * H] = hs[:0:-1, :, k] if r else hs[1:, :, k]
    out = out if stacked else out[:, 0]
    if not grad_enabled:
        return Tensor(out)

    def backward(grad: np.ndarray) -> None:
        grad = grad if stacked else grad[:, None]
        # douts[s]: every direction's output gradient at step s, (M, n_dir, B, H).
        douts = np.stack(
            [grad[::-1, ..., k * H : (k + 1) * H] if r else grad[..., k * H : (k + 1) * H]
             for k, r in enumerate(reverse)],
            axis=2,
        )
        d_w_x, d_w_h = np.zeros(w_x.shape, dtype), np.zeros(w_h.shape, dtype)
        d_bias = np.zeros((M, n_dir, 4 * H), dtype)
        d_xs = np.empty((seq_len, M, n_dir) + x.shape[2:], dtype) if inputs.requires_grad else None
        d_gates = np.empty((M, n_dir, batch, 4 * H), dtype)
        w_x_t, w_h_t = np.swapaxes(w_x, -1, -2), np.swapaxes(w_h, -1, -2)
        dh_next = dc_next = None
        for s in range(seq_len - 1, -1, -1):
            act, tc, c_prev = acts[s], tcs[s], cs[s]
            i, f = act[..., 0:H], act[..., H : 2 * H]
            g, o = act[..., 2 * H : 3 * H], act[..., 3 * H : 4 * H]
            dh = douts[s] if dh_next is None else douts[s] + dh_next
            dc = dh * o * (1.0 - tc**2)
            if dc_next is not None:
                dc = dc + dc_next
            d_gates[..., 0:H] = dc * g * i * (1.0 - i)
            d_gates[..., H : 2 * H] = dc * c_prev * f * (1.0 - f)
            d_gates[..., 2 * H : 3 * H] = dc * i * (1.0 - g**2)
            d_gates[..., 3 * H : 4 * H] = dh * tc * o * (1.0 - o)
            d_bias += d_gates.sum(axis=2)
            d_w_h += np.swapaxes(hs[s], -1, -2) @ d_gates
            # Per direction, from the input's own step slice: the product
            # then takes the unrolled cell's BLAS path even when ``D == 1``
            # makes it a matrix-vector product whose result depends on the
            # vector's stride.
            for k, r in enumerate(reverse):
                x_step = x[seq_len - 1 - s] if r else x[s]
                d_w_x[:, k] += np.swapaxes(x_step, -1, -2) @ d_gates[:, k]
            if d_xs is not None:
                d_xs[s] = d_gates @ w_x_t
            dh_next = d_gates @ w_h_t
            dc_next = dc * f
        for k, cell in enumerate(cells):
            cell.w_x._accumulate(d_w_x[:, k].reshape(cell.w_x.shape))
            cell.w_h._accumulate(d_w_h[:, k].reshape(cell.w_h.shape))
            cell.bias._accumulate(d_bias[:, k].reshape(cell.bias.shape))
        if d_xs is not None:
            dx = np.zeros(x.shape, dtype)
            for k, r in enumerate(reverse):
                dx += d_xs[::-1, :, k] if r else d_xs[:, :, k]
            inputs._accumulate(dx.reshape(inputs.shape))

    return Tensor(out, requires_grad=True, _prev=parents, _backward=backward)


class LSTM(Module):
    """Unidirectional LSTM over a ``(seq_len, [models,] batch, input_dim)`` tensor."""

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0, models: int | None = None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, seed=seed, models=models)
        self.hidden_dim = hidden_dim

    def forward(self, inputs: Tensor, *, reverse: bool = False) -> Tensor:
        """Return hidden states stacked over time: ``(seq_len, [models,] batch, hidden)``."""
        return _lstm_scan(inputs, (self.cell,), (reverse,))


class BiLSTM(Module):
    """Bidirectional LSTM: concatenation of forward and backward hidden states."""

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0, models: int | None = None):
        super().__init__()
        if hidden_dim % 2 != 0:
            raise ValueError("hidden_dim of a BiLSTM must be even")
        half = hidden_dim // 2
        self.forward_lstm = LSTM(input_dim, half, seed=seed, models=models)
        self.backward_lstm = LSTM(input_dim, half, seed=seed + 1, models=models)
        self.hidden_dim = hidden_dim

    def forward(self, inputs: Tensor) -> Tensor:
        return _lstm_scan(
            inputs, (self.forward_lstm.cell, self.backward_lstm.cell), (False, True)
        )
