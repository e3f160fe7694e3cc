"""Exact and randomized truncated SVD kernels.

The randomized path is the standard Halko--Martinsson--Tropp range finder
(Halko et al., 2011, Algorithm 4.4/5.1): project onto a seeded Gaussian test
matrix, optionally sharpen the captured subspace with power iterations
(re-orthogonalised between applications for numerical stability), then take
the exact SVD of the small projected matrix.  The result is a deterministic
function of ``(matrix, rank, knobs, seed)``, so randomized runs stay
reproducible and the parallel scheduler stays bit-identical to the serial
path.

:func:`compute_svd` is the policy-aware entry point everything routes
through: the :class:`~repro.measures.base.DecompositionCache`, the anchor
factorization of the EIS measure, and the PPMI-SVD embedding algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.policy import KernelPolicy, default_policy

__all__ = ["exact_svd", "randomized_svd", "compute_svd"]


def exact_svd(
    X: np.ndarray, rank: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin LAPACK SVD of ``X``, optionally truncated to the top ``rank``."""
    U, S, Vt = np.linalg.svd(np.asarray(X), full_matrices=False)
    if rank is not None and rank < S.size:
        U, S, Vt = U[:, :rank], S[:rank], Vt[:rank]
    return U, S, Vt


def randomized_svd(
    X,
    rank: int,
    *,
    n_oversamples: int = 10,
    n_power_iter: int = 2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD (Halko et al., 2011), seeded and deterministic.

    Parameters
    ----------
    X:
        ``(n, d)`` matrix; anything supporting ``@`` and ``.T`` works, so
        scipy sparse matrices can be factored without densifying.
    rank:
        Number of singular triplets to return; clamped to ``min(n, d)``.
    n_oversamples:
        Extra test vectors beyond ``rank`` (improves subspace capture).
    n_power_iter:
        Power iterations ``(X X^T)^q`` applied to the sample, with a QR
        re-orthogonalisation between applications; 1--2 suffice unless the
        spectrum is very flat.
    seed:
        Seed of the Gaussian test matrix.

    Returns
    -------
    ``(U, S, Vt)`` with ``U``: ``(n, rank)``, ``S``: ``(rank,)``,
    ``Vt``: ``(rank, d)``, singular values in descending order, in the dtype
    of ``X`` (float64 for non-floating inputs).
    """
    n, d = X.shape
    short_side = min(n, d)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rank = min(int(rank), short_side)
    n_samples = min(rank + int(n_oversamples), short_side)

    X_dtype = getattr(X, "dtype", None)
    dtype = X_dtype if X_dtype is not None and np.issubdtype(X_dtype, np.floating) \
        else np.dtype(np.float64)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((d, n_samples)).astype(dtype, copy=False)

    Y = np.asarray(X @ omega)
    Q, _ = np.linalg.qr(Y)
    for _ in range(int(n_power_iter)):
        Z, _ = np.linalg.qr(np.asarray(X.T @ Q))
        Q, _ = np.linalg.qr(np.asarray(X @ Z))

    B = np.asarray(Q.T @ X)                 # (n_samples, d): small projected matrix
    Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :rank], S[:rank], Vt[:rank]


def compute_svd(
    X: np.ndarray,
    rank: int | None = None,
    *,
    policy: KernelPolicy | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Policy-dispatched thin/truncated SVD.

    ``policy=None`` uses the process default (see
    :func:`repro.linalg.configure_default_policy`).  The computation runs in
    the dtype of ``X`` -- callers opting into float32 cast first via
    :meth:`KernelPolicy.cast` -- and ``seed`` overrides the policy's range-
    finder seed (used by the PPMI-SVD embedding so each training seed draws
    its own test matrix).
    """
    if policy is None:
        policy = default_policy()
    if policy.resolve_method(X.shape, rank) == "randomized":
        return randomized_svd(
            X,
            rank,
            n_oversamples=policy.n_oversamples,
            n_power_iter=policy.n_power_iter,
            seed=policy.seed if seed is None else seed,
        )
    return exact_svd(X, rank)
