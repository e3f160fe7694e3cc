"""Argument validation helpers shared across the library."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_array",
    "check_embedding_pair",
    "check_positive",
    "check_probability",
    "check_in_choices",
]


def check_array(
    x,
    *,
    name: str = "array",
    ndim: int | None = None,
    dtype=np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``x`` to a contiguous ndarray and validate its shape.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions (``None`` = any).
    dtype:
        Target dtype (``None`` keeps the input dtype).
    allow_empty:
        Whether zero-size arrays are acceptable.
    """
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_embedding_pair(X, X_tilde, *, same_dim: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Validate a pair of embedding matrices with a shared vocabulary.

    Both matrices must be 2-D with the same number of rows (words).  When
    ``same_dim`` the embedding dimensions must also match (required by
    measures such as semantic displacement that compare rows directly).
    """
    A = check_array(X, name="X", ndim=2)
    B = check_array(X_tilde, name="X_tilde", ndim=2)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"embedding pair must share a vocabulary: {A.shape[0]} vs {B.shape[0]} rows"
        )
    if same_dim and A.shape[1] != B.shape[1]:
        raise ValueError(
            f"embedding pair must have equal dimensions for this measure: "
            f"{A.shape[1]} vs {B.shape[1]}"
        )
    return A, B


def check_positive(value, *, name: str = "value", strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) scalar."""
    v = float(value)
    if strict and v <= 0:
        raise ValueError(f"{name} must be > 0, got {v}")
    if not strict and v < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def check_probability(value, *, name: str = "value") -> float:
    """Validate that ``value`` lies in [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {v}")
    return v


def check_in_choices(value, choices, *, name: str = "value"):
    """Validate that ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value
