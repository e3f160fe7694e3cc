"""Functional operations built on :class:`~repro.nn.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "nll_loss",
    "dropout",
    "one_hot",
    "accuracy",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    # Subtracting the (detached) max does not change gradients.
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy between ``(..., n, c)`` logits and ``(n,)`` targets.

    One graph node.  Leading axes are independent models sharing the
    targets: the loss has their shape (a scalar for ``(n, c)`` logits).
    Its forward and its closed-form backward reproduce, bit for bit, each
    model's loss and logit gradient of
    ``nll_loss(log_softmax(logits), targets)``: the same numpy expressions in
    the same order, including the clips in ``exp`` and ``log``.  It computes
    in the logits' dtype.
    """
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(logits.shape[-2])
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exp = np.exp(np.clip(shifted, -500, 500))
    total = np.clip(exp.sum(axis=-1, keepdims=True), np.finfo(exp.dtype).tiny, None)
    # Fancy indexing after a leading axis yields a strided array; a contiguous
    # copy keeps each model's sum the pairwise sum of one model's losses.
    picked = np.ascontiguousarray((shifted - np.log(total))[..., rows, targets])
    scale = 1.0 / rows.size
    loss = -(picked.sum(axis=-1) * scale)

    def backward(grad: np.ndarray) -> None:
        picked_grad = -np.asarray(grad) * scale
        dlogits = -picked_grad[..., None, None] / total * exp
        dlogits[..., rows, targets] += picked_grad[..., None]
        logits._accumulate(dlogits)

    return logits._make(loss, (logits,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits against {0, 1} targets."""
    targets_t = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    probs = logits.sigmoid()
    eps = 1e-12
    loss = -(targets_t * (probs + eps).log() + (1.0 - targets_t) * (1.0 - probs + eps).log())
    return loss.mean()


def dropout(x: Tensor, p: float, *, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer ``indices`` into ``num_classes`` columns."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((len(indices), num_classes), dtype=np.float32)
    out[np.arange(len(indices)), indices] = 1.0
    return out


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Fraction of argmax predictions matching integer targets."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    preds = np.argmax(data, axis=-1)
    return float(np.mean(preds == np.asarray(targets)))
