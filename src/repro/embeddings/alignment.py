"""Orthogonal Procrustes alignment of embedding pairs.

The paper aligns each Wiki'18 embedding to its Wiki'17 counterpart with
orthogonal Procrustes (Schönemann, 1966) *before* compressing and training
downstream models, because preliminary experiments showed alignment lowers
instability (Appendix C.2).  Alignment is exposed as a flag throughout the
pipeline so the ablation can be reproduced.

The rotation solve is the SVD of the ``(d, d)`` cross product ``Y^T X``.
Passing a :class:`~repro.linalg.KernelPolicy` dispatches that SVD through the
kernel layer (exact or seeded Halko randomized); the returned rotation is
``U V^T`` of whatever factorization ran, so it is exactly orthogonal either
way -- a randomized policy perturbs *which* rotation is chosen, never its
orthogonality.  :func:`alignment_residual` reports the relative Frobenius
misfit of an alignment, which :func:`align_pair` records in the aligned
embedding's metadata.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import Embedding
from repro.linalg import KernelPolicy, compute_svd
from repro.utils.validation import check_embedding_pair

__all__ = [
    "orthogonal_procrustes",
    "alignment_residual",
    "align_matrices",
    "align_pair",
]


def orthogonal_procrustes(
    X: np.ndarray, Y: np.ndarray, *, policy: KernelPolicy | None = None
) -> np.ndarray:
    """Solve ``min_R ||X - Y R||_F`` subject to ``R^T R = I``.

    Returns the orthogonal matrix ``R`` that rotates ``Y`` onto ``X``.  Both
    matrices must have the same shape ``(n, d)``.  With ``policy=None`` the
    ``(d, d)`` SVD runs on the plain LAPACK path (bit-identical to the seed
    repository regardless of any process-wide policy); an explicit policy
    dispatches it through :func:`~repro.linalg.compute_svd`, so
    ``svd="randomized"`` engages the seeded Halko kernel.
    """
    X, Y = check_embedding_pair(X, Y, same_dim=True)
    # R = U V^T where Y^T X = U S V^T (standard Procrustes solution).
    M = Y.T @ X
    if policy is None:
        U, _, Vt = np.linalg.svd(M, full_matrices=False)
    else:
        U, _, Vt = compute_svd(M, min(M.shape), policy=policy)
    return U @ Vt


def alignment_residual(X: np.ndarray, Y: np.ndarray, R: np.ndarray) -> float:
    """Relative Frobenius misfit ``||X - Y R||_F / ||X||_F`` of a rotation.

    Cheap (one ``(n, d)`` GEMM) and exact, so it doubles as the quality check
    of a randomized-policy rotation: a rotation from a randomized
    factorization that landed on the same solution as LAPACK produces the
    same residual.  Returns 0.0 for an all-zero ``X``.
    """
    X = np.asarray(X)
    norm = float(np.linalg.norm(X))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(X - np.asarray(Y) @ np.asarray(R)) / norm)


def align_matrices(
    X: np.ndarray, Y: np.ndarray, *, policy: KernelPolicy | None = None
) -> np.ndarray:
    """Return ``Y`` rotated onto ``X`` with the Procrustes solution."""
    R = orthogonal_procrustes(X, Y, policy=policy)
    return Y @ R


def align_pair(
    reference: Embedding,
    other: Embedding,
    *,
    top_k: int | None = None,
    policy: KernelPolicy | None = None,
) -> Embedding:
    """Align ``other`` to ``reference`` over their common vocabulary.

    The rotation is estimated on the common (optionally top-``k``) rows and
    then applied to *all* rows of ``other`` so the full embedding stays
    usable downstream.  The estimation residual (relative Frobenius misfit
    over the common rows) is recorded in the returned embedding's metadata
    as ``alignment_residual``, so artifacts built from a randomized-policy
    alignment carry their own error estimate.

    Parameters
    ----------
    reference:
        Embedding kept fixed (the paper's Wiki'17 embedding).
    other:
        Embedding to rotate (the paper's Wiki'18 embedding).
    top_k:
        Restrict the rotation estimation to the ``top_k`` most frequent common
        words (``None`` uses every common word).
    policy:
        Kernel policy dispatching the rotation solve's SVD (``None`` = plain
        LAPACK).
    """
    if reference.dim != other.dim:
        raise ValueError(
            f"cannot align embeddings of different dimensions: {reference.dim} vs {other.dim}"
        )
    ref_common, other_common = Embedding.aligned_pair(reference, other, top_k=top_k)
    R = orthogonal_procrustes(ref_common.vectors, other_common.vectors, policy=policy)
    residual = alignment_residual(ref_common.vectors, other_common.vectors, R)
    rotated = other.vectors @ R
    return other.with_vectors(
        rotated,
        aligned_to=reference.metadata.get("corpus", "reference"),
        alignment_residual=residual,
    )
