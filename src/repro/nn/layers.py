"""Neural-network layers (Module, Linear, Embedding, Dropout, activations).

Every parameter and embedding table a layer holds is float32.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.rng import check_random_state

__all__ = ["Module", "Linear", "Embedding", "Dropout", "ReLU", "Tanh", "Sequential"]


class Module:
    """Base class for layers and models: parameter tracking + train/eval mode."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- registration ----------------------------------------------------------

    def __setattr__(self, name, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        self._parameters[name] = tensor
        object.__setattr__(self, name, tensor)
        return tensor

    # -- traversal ---------------------------------------------------------------

    def parameters(self) -> Iterator[Tensor]:
        """All trainable parameters of this module and its children."""
        seen: set[int] = set()
        for p in self._parameters.values():
            if id(p) not in seen:
                seen.add(id(p))
                yield p
        for child in self._modules.values():
            for p in child.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield f"{prefix}{name}", p
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ---------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state ------------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, p in params.items():
            if p.data.shape != np.asarray(state[name]).shape:
                raise ValueError(f"shape mismatch for {name}")
            p.data = np.array(state[name], dtype=np.float32)

    # -- call -------------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform initialisation, in float32."""
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out)).astype(np.float32)


class Linear(Module):
    """Affine layer ``y = x W + b``.

    With ``models=M`` the layer holds ``M`` copies of its parameters on a
    leading model axis -- ``(M, in, out)`` weights and ``(M, 1, out)`` biases,
    each copy initialised like the single layer -- and maps inputs of shape
    ``(..., M, batch, in)``.  Every model's product is its own matmul slice.
    """

    def __init__(
        self, in_features: int, out_features: int, *, bias: bool = True, seed: int = 0,
        models: int | None = None,
    ):
        super().__init__()
        rng = check_random_state(seed)
        self.in_features = in_features
        self.out_features = out_features
        weight = _init_weight(rng, in_features, out_features)
        bias_shape = (out_features,)
        if models is not None:
            weight = np.repeat(weight[None], models, axis=0)
            bias_shape = (models, 1, out_features)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = (
            Tensor(np.zeros(bias_shape, dtype=np.float32), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Embedding lookup table, optionally frozen (the paper fixes embeddings).

    Parameters
    ----------
    weight:
        Initial ``(num_embeddings, dim)`` matrix (e.g. pre-trained vectors), or
        a ``(models, num_embeddings, dim)`` stack of such tables: a lookup then
        gathers the same ids from every table at once.  The layer keeps a
        float32 copy.
    trainable:
        Whether the table receives gradients (the paper's default pipeline
        freezes it; Appendix E.4 fine-tunes it).
    """

    def __init__(self, weight: np.ndarray, *, trainable: bool = False):
        super().__init__()
        weight = np.array(weight, dtype=np.float32)
        if weight.ndim not in (2, 3):
            raise ValueError("embedding weight must be 2-D (or a 3-D stack of tables)")
        self.num_embeddings, self.dim = weight.shape[-2:]
        self.trainable = bool(trainable)
        if self.trainable:
            self.weight = Tensor(weight, requires_grad=True)
        else:
            self.weight = Tensor(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        """Rows of ``indices``: ``(*indices.shape, dim)``, after the model axis if stacked."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.weight.ndim == 3:
            return self.weight[:, indices]
        return self.weight[indices]

    def mean_of(self, indices: np.ndarray) -> Tensor:
        """Mean embedding of a bag of word ids (empty bags map to zeros)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return Tensor(np.zeros(self.weight.shape[:-2] + (self.dim,), dtype=np.float32))
        rows = self.forward(indices)
        # numpy lays a stacked gather out word-major.  With dim 1 its mean
        # would then add a bag's words one after another, where a single
        # table's contiguous rows are summed pairwise; a contiguous copy
        # makes every model of a stack round like a one-table fit.
        rows.data = np.ascontiguousarray(rows.data)
        return rows.mean(axis=-2)


class Dropout(Module):
    """Inverted dropout layer."""

    def __init__(self, p: float = 0.5, *, seed: int = 0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = float(p)
        self.rng = check_random_state(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self.rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.children_list = list(modules)
        for idx, module in enumerate(modules):
            self._modules[str(idx)] = module

    def forward(self, x):
        for module in self.children_list:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.children_list)

    def __getitem__(self, idx: int) -> Module:
        return self.children_list[idx]
