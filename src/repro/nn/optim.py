"""Optimisers: plain SGD (with decay) and Adam.

The paper trains the sentiment models with Adam and the NER BiLSTM with
vanilla SGD plus learning-rate annealing on validation plateaus; both are
provided here.

An optimiser steps ``models`` independent models at once: the downstream
models train in lockstep on a leading model axis (see
:func:`repro.models.trainer.fit_lockstep`), so every parameter is read as
``models`` rows.  Each model has its own learning rate and its own gradient
clipping norm; every update is elementwise, so a model's rows change exactly
as they would in an optimiser of its own.  With ``models=1`` (the default)
a parameter of any shape is one row.  Learning rates, moment estimates and
clipping norms take the parameters' dtype: float32 for every layer's.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimiser over a list of parameters."""

    def __init__(self, parameters, lr: float, *, models: int = 1) -> None:
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if models < 1:
            raise ValueError("models must be positive")
        self.models = int(models)
        #: One learning rate per model.
        self.lr = np.empty(self.models, dtype=_dtype(self.parameters))
        self.set_lr(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float, *, model: int | None = None) -> None:
        """Set the learning rate of one model, or of every model."""
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if model is None:
            self.lr[:] = lr
        else:
            self.lr[model] = lr

    def _rate(self, p: Tensor) -> np.ndarray:
        """The learning rates, shaped to broadcast over ``p``'s model rows."""
        return self.lr.reshape((self.models,) + (1,) * (p.data.ndim - 1))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and gradient clipping."""

    def __init__(
        self, parameters, lr: float, *, momentum: float = 0.0, clip_norm: float | None = 5.0,
        models: int = 1,
    ):
        super().__init__(parameters, lr, models=models)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        if self.clip_norm is not None:
            _clip_gradients(self.parameters, self.clip_norm, self.models)
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0:
                v *= self.momentum
                v += p.grad
                p.data -= self._rate(p) * v
            else:
                p.data -= self._rate(p) * p.grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        clip_norm: float | None = None,
        models: int = 1,
    ):
        super().__init__(parameters, lr, models=models)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.clip_norm = clip_norm
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        if self.clip_norm is not None:
            _clip_gradients(self.parameters, self.clip_norm, self.models)
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad**2)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self._rate(p) * m_hat / (np.sqrt(v_hat) + self.eps)


def _dtype(parameters: list[Tensor]) -> np.dtype:
    return np.result_type(*(p.data for p in parameters))


def _clip_gradients(parameters: list[Tensor], max_norm: float, models: int = 1) -> np.ndarray:
    """Scale each model's gradients so their global L2 norm is at most ``max_norm``.

    A model's squared norm is summed parameter by parameter, each parameter's
    row summed on its own, so it equals the norm of that model's gradients
    alone.  Returns the per-model norms before clipping.
    """
    total = np.zeros(models, dtype=_dtype(parameters))
    for p in parameters:
        if p.grad is not None:
            total += np.sum((p.grad**2).reshape(models, -1), axis=1)
    norm = np.sqrt(total)
    clipped = (norm > max_norm) & (norm > 0)
    if clipped.any():
        scale = np.ones(models, dtype=total.dtype)
        np.divide(max_norm, norm, out=scale, where=clipped)
        for p in parameters:
            if p.grad is not None:
                p.grad *= scale.reshape((models,) + (1,) * (p.grad.ndim - 1))
    return norm
