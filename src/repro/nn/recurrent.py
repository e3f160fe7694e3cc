"""Recurrent layers: LSTM cell, unidirectional LSTM, and BiLSTM.

The paper's NER model is a single-layer BiLSTM (Akbik et al., 2018) over
fixed word embeddings, optionally followed by a CRF.

:class:`LSTMCell` is the per-step op on the autograd engine.  :class:`LSTM`
and :class:`BiLSTM` do not unroll it: each forward pass is one fused graph
node.  Its forward is a scan that advances every direction in lockstep over
stacked ``(directions, batch, ...)`` arrays; its backward is a hand-written
backpropagation-through-time pass.  At this scale (sentences of tens of
tokens, hidden sizes of 8-32) a step's arithmetic is cheaper than creating
the dozen tensors an unrolled step needs, so the fused node is several
times faster.

The fused node is bit-identical to unrolling :meth:`LSTMCell.forward`
through the engine: outputs and every gradient.  The scan evaluates the
cell's numpy expressions in the cell's order (one sigmoid over the whole
gate block equals per-gate sigmoids, and a stacked matmul equals its
per-direction slices).  The backward pass accumulates each parameter's
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
    """A standard LSTM cell with coupled input/forget/cell/output gates."""

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0):
        super().__init__()
        rng = check_random_state(seed)
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        # Stack the four gates into single matrices for fewer matmuls.
        self.w_x = Tensor(_init_weight(rng, input_dim, 4 * hidden_dim), requires_grad=True)
        self.w_h = Tensor(_init_weight(rng, hidden_dim, 4 * hidden_dim), requires_grad=True)
        bias = np.zeros(4 * hidden_dim)
        # Positive forget-gate bias, the usual trick for trainability.
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """One step: ``x`` is ``(batch, input_dim)``; returns ``(h, c)``."""
        h_prev, c_prev = state
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        H = self.hidden_dim
        i = gates[:, 0:H].sigmoid()
        f = gates[:, H : 2 * H].sigmoid()
        g = gates[:, 2 * H : 3 * H].tanh()
        o = gates[:, 3 * H : 4 * H].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_dim))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


def _lstm_scan(inputs: Tensor, cells: tuple[LSTMCell, ...], reverse: tuple[bool, ...]) -> Tensor:
    """Run ``cells`` over ``inputs`` in lockstep as one graph node.

    ``inputs`` is ``(seq_len, batch, input_dim)``; cell ``k`` reads it back to
    front when ``reverse[k]``.  Returns the hidden states of every cell
    concatenated on the last axis: ``(seq_len, batch, len(cells) * hidden)``.
    Arrays below are indexed by processing step ``s``, not time step.
    """
    x = inputs.data
    seq_len, batch = x.shape[0], x.shape[1]
    H = cells[0].hidden_dim
    n_dir = len(cells)
    w_x = np.stack([cell.w_x.data for cell in cells])             # (n_dir, D, 4H)
    w_h = np.stack([cell.w_h.data for cell in cells])             # (n_dir, H, 4H)
    bias = np.stack([cell.bias.data for cell in cells])[:, None]  # (n_dir, 1, 4H)
    xs = np.stack([x[::-1] if r else x for r in reverse], axis=1)  # (T, n_dir, B, D)
    # hs[s + 1], cs[s + 1]: state after step s; hs[0], cs[0]: the zero state.
    hs = np.zeros((seq_len + 1, n_dir, batch, H))
    cs = np.zeros((seq_len + 1, n_dir, batch, H))
    # acts[s]: sigmoid(i), sigmoid(f), tanh(g), sigmoid(o); tcs[s]: tanh(c).
    acts = np.empty((seq_len, n_dir, batch, 4 * H))
    tcs = np.empty((seq_len, n_dir, batch, H))
    for s in range(seq_len):
        gates = xs[s] @ w_x + hs[s] @ w_h + bias
        act = acts[s]
        # np.minimum(np.maximum(.)) is np.clip's result, without its overhead.
        np.divide(1.0, 1.0 + np.exp(-np.minimum(np.maximum(gates, -60), 60)), out=act)
        act[..., 2 * H : 3 * H] = np.tanh(gates[..., 2 * H : 3 * H])
        np.add(act[..., H : 2 * H] * cs[s], act[..., 0:H] * act[..., 2 * H : 3 * H], out=cs[s + 1])
        np.tanh(cs[s + 1], out=tcs[s])
        np.multiply(act[..., 3 * H : 4 * H], tcs[s], out=hs[s + 1])

    out = np.empty((seq_len, batch, n_dir * H))
    for k, r in enumerate(reverse):
        out[:, :, k * H : (k + 1) * H] = hs[1:, k][::-1] if r else hs[1:, k]
    params = tuple(p for cell in cells for p in (cell.w_x, cell.w_h, cell.bias))
    parents = (inputs, *params)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        return Tensor(out)

    def backward(grad: np.ndarray) -> None:
        dout = np.stack(
            [grad[::-1, :, k * H : (k + 1) * H] if r else grad[:, :, k * H : (k + 1) * H]
             for k, r in enumerate(reverse)],
            axis=1,
        )                                                          # (T, n_dir, B, H)
        d_w_x, d_w_h = np.zeros_like(w_x), np.zeros_like(w_h)
        d_bias = np.zeros((n_dir, 4 * H))
        d_xs = np.empty_like(xs) if inputs.requires_grad else None
        d_gates = np.empty((n_dir, batch, 4 * H))
        w_x_t, w_h_t = np.swapaxes(w_x, -1, -2), np.swapaxes(w_h, -1, -2)
        dh_next = dc_next = None
        for s in range(seq_len - 1, -1, -1):
            act, tc, c_prev = acts[s], tcs[s], cs[s]
            i, f = act[..., 0:H], act[..., H : 2 * H]
            g, o = act[..., 2 * H : 3 * H], act[..., 3 * H : 4 * H]
            dh = dout[s] if dh_next is None else dout[s] + dh_next
            dc = dh * o * (1.0 - tc**2)
            if dc_next is not None:
                dc = dc + dc_next
            d_gates[..., 0:H] = dc * g * i * (1.0 - i)
            d_gates[..., H : 2 * H] = dc * c_prev * f * (1.0 - f)
            d_gates[..., 2 * H : 3 * H] = dc * i * (1.0 - g**2)
            d_gates[..., 3 * H : 4 * H] = dh * tc * o * (1.0 - o)
            d_bias += d_gates.sum(axis=1)
            d_w_h += np.swapaxes(hs[s], -1, -2) @ d_gates
            d_w_x += np.swapaxes(xs[s], -1, -2) @ d_gates
            if d_xs is not None:
                d_xs[s] = d_gates @ w_x_t
            dh_next = d_gates @ w_h_t
            dc_next = dc * f
        for k, cell in enumerate(cells):
            cell.w_x._accumulate(d_w_x[k])
            cell.w_h._accumulate(d_w_h[k])
            cell.bias._accumulate(d_bias[k])
        if d_xs is not None:
            dx = np.zeros_like(x)
            for k, r in enumerate(reverse):
                dx += d_xs[::-1, k] if r else d_xs[:, k]
            inputs._accumulate(dx)

    return Tensor(out, requires_grad=True, _prev=parents, _backward=backward)


class LSTM(Module):
    """Unidirectional LSTM over a ``(seq_len, batch, input_dim)`` tensor."""

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, seed=seed)
        self.hidden_dim = hidden_dim

    def forward(self, inputs: Tensor, *, reverse: bool = False) -> Tensor:
        """Return hidden states stacked over time: ``(seq_len, batch, hidden)``."""
        return _lstm_scan(inputs, (self.cell,), (reverse,))


class BiLSTM(Module):
    """Bidirectional LSTM: concatenation of forward and backward hidden states."""

    def __init__(self, input_dim: int, hidden_dim: int, *, seed: int = 0):
        super().__init__()
        if hidden_dim % 2 != 0:
            raise ValueError("hidden_dim of a BiLSTM must be even")
        half = hidden_dim // 2
        self.forward_lstm = LSTM(input_dim, half, seed=seed)
        self.backward_lstm = LSTM(input_dim, half, seed=seed + 1)
        self.hidden_dim = hidden_dim

    def forward(self, inputs: Tensor) -> Tensor:
        return _lstm_scan(
            inputs, (self.forward_lstm.cell, self.backward_lstm.cell), (False, True)
        )
