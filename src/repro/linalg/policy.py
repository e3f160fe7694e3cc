"""Kernel selection and precision policy of the numerical-kernel layer.

A :class:`KernelPolicy` decides, for every decomposition the measures and the
pipeline take, (a) whether to use the exact LAPACK path or the randomized
range-finder (:mod:`repro.linalg.svd`) and (b) which floating-point precision
to compute in.  The policy is threaded from the experiment runner's
``--kernel-policy`` / ``--dtype`` flags through
:class:`~repro.instability.pipeline.PipelineConfig` into the
:class:`~repro.measures.base.DecompositionCache`, the measure batch and the
anchor factorization, so one flag flips the whole stack.

The default policy is ``exact`` / ``float64``: every result is bit-identical
to the seed repository until a caller opts in -- either by selecting a policy
(config field, CLI flag, process default) or by handing the measures matrices
that are already float32, which the validation layer deliberately preserves.  ``auto`` (opt-in) picks the
randomized path only where it provably pays: when a truncated rank is
requested that is small relative to the matrix (at most
``auto_max_rank_fraction`` of the short side) and the matrix is large enough
(short side at least ``auto_min_side``) for the constant factors to matter.
Full-rank thin decompositions -- the shape every measure SVD has -- stay on
the exact LAPACK path even under ``auto``, which is already optimal there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "KernelPolicy",
    "configure_default_policy",
    "default_policy",
    "SVD_METHODS",
    "KERNEL_DTYPES",
]

#: Valid values of ``KernelPolicy.svd``.
SVD_METHODS = ("exact", "randomized", "auto")
#: Valid values of ``KernelPolicy.dtype``.
KERNEL_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class KernelPolicy:
    """How the linalg layer computes decompositions and at which precision.

    Attributes
    ----------
    svd:
        ``"exact"`` (LAPACK, the default), ``"randomized"`` (Halko range
        finder, seeded and deterministic) or ``"auto"`` (randomized only for
        truncated ranks on large matrices, see :meth:`resolve_method`).
    dtype:
        ``"float64"`` (bit-identical to the seed repository) or ``"float32"``
        (roughly halves SVD and GEMM time at a documented accuracy cost; see
        ``tests/measures/test_precision_policy.py`` for the pinned tolerances).
    n_oversamples, n_power_iter:
        Randomized-SVD accuracy knobs (Halko et al., 2011 defaults).
    seed:
        Seed of the randomized range finder's test matrix; the decomposition
        is a deterministic function of ``(matrix, rank, knobs, seed)``.
    auto_min_side, auto_max_rank_fraction:
        Thresholds of the ``auto`` method choice.
    """

    svd: str = "exact"
    dtype: str = "float64"
    n_oversamples: int = 10
    n_power_iter: int = 2
    seed: int = 0
    auto_min_side: int = 512
    auto_max_rank_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.svd not in SVD_METHODS:
            raise ValueError(f"svd must be one of {SVD_METHODS}, got {self.svd!r}")
        if self.dtype not in KERNEL_DTYPES:
            raise ValueError(f"dtype must be one of {KERNEL_DTYPES}, got {self.dtype!r}")
        if self.n_oversamples < 0 or self.n_power_iter < 0:
            raise ValueError("n_oversamples and n_power_iter must be non-negative")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype == "float32" else np.float64)

    def cast(self, X: np.ndarray) -> np.ndarray:
        """``X`` in this policy's dtype (no copy when it already matches)."""
        X = np.asarray(X)
        return X if X.dtype == self.np_dtype else X.astype(self.np_dtype)

    def resolve_method(self, shape: tuple[int, ...], rank: int | None = None) -> str:
        """The concrete method (``"exact"``/``"randomized"``) for one matrix.

        The randomized kernel only ever applies to *truncated* decompositions:
        with ``rank=None`` (full-rank thin SVD) a randomized factorization is
        strictly slower and less accurate than LAPACK, so every policy
        resolves it to exact.  ``svd="randomized"`` forces the randomized
        kernel for any truncated rank; ``auto`` additionally requires the rank
        to be at most ``auto_max_rank_fraction`` of the short side and the
        short side to be at least ``auto_min_side``.
        """
        if rank is None or self.svd == "exact":
            return "exact"
        if self.svd == "randomized":
            return "randomized"
        short_side = min(shape)
        if short_side < self.auto_min_side:
            return "exact"
        return "randomized" if rank <= self.auto_max_rank_fraction * short_side else "exact"

    def with_overrides(self, **overrides) -> "KernelPolicy":
        """A copy with ``None``-valued overrides dropped."""
        kept = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **kept) if kept else self

    def key_fields(self) -> dict:
        """The policy fields that can change a decomposition's *values*.

        Used inside artifact-store keys: under ``exact`` only the method name
        matters, while ``randomized``/``auto`` results also depend on the
        range-finder knobs (and, for ``auto``, on the dispatch thresholds) --
        so changing any of those can never serve stale cached artifacts.
        """
        if self.svd == "exact":
            return {"svd": "exact"}
        fields = {
            "svd": self.svd,
            "n_oversamples": self.n_oversamples,
            "n_power_iter": self.n_power_iter,
            "seed": self.seed,
        }
        if self.svd == "auto":
            fields.update(
                auto_min_side=self.auto_min_side,
                auto_max_rank_fraction=self.auto_max_rank_fraction,
            )
        return fields


# -- process-wide default policy ------------------------------------------------
#
# Mirrors ``repro.engine.store.configure_default_store``: the
# ``--kernel-policy`` / ``--dtype`` flags (:mod:`repro.options`) set it once,
# and every pipeline constructed without explicit policy fields picks it up.
# The grid scheduler ships the parent's default to worker processes so spawned
# workers resolve policies identically.

_DEFAULT_POLICY = KernelPolicy()


def configure_default_policy(
    policy: KernelPolicy | None = None, **overrides
) -> KernelPolicy:
    """Set the process-wide default kernel policy.

    Pass a full :class:`KernelPolicy`, keyword overrides of the current
    default (``None`` values are ignored, so CLI flags can be forwarded
    directly), or nothing to reset to the built-in default.
    """
    global _DEFAULT_POLICY
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if policy is None and not overrides:
        _DEFAULT_POLICY = KernelPolicy()
    else:
        base = policy if policy is not None else _DEFAULT_POLICY
        _DEFAULT_POLICY = replace(base, **overrides) if overrides else base
    return _DEFAULT_POLICY


def default_policy() -> KernelPolicy:
    """The process-wide default kernel policy."""
    return _DEFAULT_POLICY
