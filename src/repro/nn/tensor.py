"""A small reverse-mode autodiff ``Tensor`` over NumPy arrays.

Define-by-run: every operation records a closure that propagates gradients to
its inputs; :meth:`Tensor.backward` runs a topological sort and accumulates
gradients into ``.grad``.  Only the operations needed by the downstream models
in this repository are implemented, but they are implemented with full NumPy
broadcasting support so the layer code stays natural.

A tensor computes in ``float32`` unless it is given a ``float64`` array: it
keeps the dtype of a ``float32`` or ``float64`` array and makes anything
else (lists, Python numbers, integer and boolean arrays) ``float32``.  A
Python number or list meeting a tensor in an operation takes that tensor's
dtype, as numpy treats Python numbers.  The layers and the downstream
models allocate ``float32`` throughout; ``float64`` tensors remain for
numerical checks of the engine itself.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))

# Grad mode is per-thread: the serving layer evaluates models on its worker
# pool and in-process cluster workers train concurrently, so a process-global
# flag would let one thread's ``no_grad`` evaluation silently strip another
# thread's training graph (backward() then fails mid-fit).
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (used for evaluation)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an optional gradient and autodiff history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data,
        *,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOATS:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._prev = _prev if self.requires_grad or _prev else ()
        self._backward = _backward
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def as_tensor(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _operand(self, other) -> "Tensor":
        """``other`` as a tensor; a Python number or list takes this tensor's dtype."""
        if isinstance(other, (Tensor, np.ndarray, np.generic)):
            return Tensor.as_tensor(other)
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    @staticmethod
    def zeros(shape, *, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, *, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    # -- metadata --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ----------------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim == 1:
                # (d,) @ (d, m) -> (m,)
                self._accumulate(grad @ b.T)
                other._accumulate(np.outer(a, grad))
            elif b.ndim == 1:
                # (n, d) @ (d,) -> (n,)
                self._accumulate(np.outer(grad, b))
                other._accumulate(a.T @ grad)
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                self._accumulate(_unbroadcast(grad_a, a.shape))
                other._accumulate(_unbroadcast(grad_b, b.shape))

        return self._make(out_data, (self, other), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(mask * g)

        return self._make(out_data, (self,), backward)

    # -- elementwise nonlinearities ---------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -500, 500))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        # The floor is the dtype's smallest normal number: a literal like
        # 1e-300 rounds to 0.0 in float32, and log(0) is -inf.
        clipped = np.clip(self.data, np.finfo(self.data.dtype).tiny, None)
        out_data = np.log(clipped)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / clipped)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    # -- shape manipulation -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        if axes and len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes) if axes else self.data.T

        def backward(grad: np.ndarray) -> None:
            if axes:
                inverse = np.argsort(axes)
                self._accumulate(grad.transpose(inverse))
            else:
                self._accumulate(grad.T)

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad: np.ndarray) -> None:
            splits = np.cumsum(sizes)[:-1]
            for tensor, piece in zip(tensors, np.split(grad, splits, axis=axis)):
                tensor._accumulate(piece)

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._prev = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._prev = tuple(tensors)
            out._backward = backward
        return out

    # -- backward pass -------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed gradient: ones)."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
