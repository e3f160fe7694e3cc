"""Orthogonal Procrustes alignment of embedding pairs.

The paper aligns each Wiki'18 embedding to its Wiki'17 counterpart with
orthogonal Procrustes (Schönemann, 1966) *before* compressing and training
downstream models, because preliminary experiments showed alignment lowers
instability (Appendix C.2).  Alignment is exposed as a flag throughout the
pipeline so the ablation can be reproduced.

The rotation solve is the SVD of the ``(d, d)`` cross product ``Y^T X``.
:func:`alignment_residual` reports the relative Frobenius misfit of an
alignment, which :func:`align_pair` records in the aligned embedding's
metadata.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import Embedding
from repro.utils.validation import check_embedding_pair

__all__ = [
    "orthogonal_procrustes",
    "alignment_residual",
    "align_matrices",
    "align_pair",
]


def orthogonal_procrustes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve ``min_R ||X - Y R||_F`` subject to ``R^T R = I``.

    Returns the orthogonal matrix ``R`` that rotates ``Y`` onto ``X``.  Both
    matrices must have the same shape ``(n, d)``.
    """
    X, Y = check_embedding_pair(X, Y, same_dim=True)
    # R = U V^T where Y^T X = U S V^T (standard Procrustes solution).
    U, _, Vt = np.linalg.svd(Y.T @ X, full_matrices=False)
    return U @ Vt


def alignment_residual(X: np.ndarray, Y: np.ndarray, R: np.ndarray) -> float:
    """Relative Frobenius misfit ``||X - Y R||_F / ||X||_F`` of a rotation.

    Cheap (one ``(n, d)`` GEMM).  Returns 0.0 for an all-zero ``X``.
    """
    X = np.asarray(X)
    norm = float(np.linalg.norm(X))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(X - np.asarray(Y) @ np.asarray(R)) / norm)


def align_matrices(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Return ``Y`` rotated onto ``X`` with the Procrustes solution."""
    return Y @ orthogonal_procrustes(X, Y)


def align_pair(
    reference: Embedding,
    other: Embedding,
    *,
    top_k: int | None = None,
) -> Embedding:
    """Align ``other`` to ``reference`` over their common vocabulary.

    The rotation is estimated on the common (optionally top-``k``) rows and
    then applied to *all* rows of ``other`` so the full embedding stays
    usable downstream.  The estimation residual (relative Frobenius misfit
    over the common rows) is recorded in the returned embedding's metadata
    as ``alignment_residual``.

    Parameters
    ----------
    reference:
        Embedding kept fixed (the paper's Wiki'17 embedding).
    other:
        Embedding to rotate (the paper's Wiki'18 embedding).
    top_k:
        Restrict the rotation estimation to the ``top_k`` most frequent common
        words (``None`` uses every common word).
    """
    if reference.dim != other.dim:
        raise ValueError(
            f"cannot align embeddings of different dimensions: {reference.dim} vs {other.dim}"
        )
    ref_common, other_common = Embedding.aligned_pair(reference, other, top_k=top_k)
    R = orthogonal_procrustes(ref_common.vectors, other_common.vectors)
    residual = alignment_residual(ref_common.vectors, other_common.vectors, R)
    rotated = other.vectors @ R
    return other.with_vectors(
        rotated,
        aligned_to=reference.metadata.get("corpus", "reference"),
        alignment_residual=residual,
    )
