"""The Pairwise Inner Product (PIP) loss (Yin & Shen, 2018).

``PIP(X, X~) = || X X^T - X~ X~^T ||_F`` -- the Frobenius distance between the
two Gram matrices.  Computed without materialising the ``n x n`` Gram matrices
via the identity

    ||X X^T - Y Y^T||_F^2 = ||X^T X||_F^2 + ||Y^T Y||_F^2 - 2 ||X^T Y||_F^2,

which only needs ``d x d`` products for tall-and-thin embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import gram_frobenius_diff_sq
from repro.measures.base import MEASURES, DecompositionCache, EmbeddingDistanceMeasure
from repro.utils.validation import check_embedding_pair

__all__ = ["pip_loss", "PIPLoss"]


def pip_loss(
    X: np.ndarray, X_tilde: np.ndarray, *, cache: DecompositionCache | None = None
) -> float:
    """Frobenius norm of the Gram-matrix difference ``X X^T - X~ X~^T``."""
    X, X_tilde = check_embedding_pair(X, X_tilde)
    if cache is not None:
        # From X = U S V^T: ||X X^T||_F^2 = sum(S^4) and
        # tr(X X^T Y Y^T) = ||diag(S) U^T U~ diag(S~)||_F^2, so the shared SVD
        # and cross product replace all three Gram products.
        _, S, _ = cache.svd(X)
        _, S_t, _ = cache.svd(X_tilde)
        M = (S[:, np.newaxis] * cache.cross(X, X_tilde)) * S_t[np.newaxis, :]
        sq = float(
            np.sum(S**4, dtype=np.float64)
            + np.sum(S_t**4, dtype=np.float64)
            - 2.0 * np.sum(M**2, dtype=np.float64)
        )
    else:
        sq = gram_frobenius_diff_sq(X, X_tilde)
    # Round-off can produce a tiny negative value when the matrices are equal.
    return float(np.sqrt(max(sq, 0.0)))


@MEASURES.register("pip")
class PIPLoss(EmbeddingDistanceMeasure):
    """Pairwise inner product loss between two embeddings."""

    name = "pip"

    def compute(self, X: np.ndarray, X_tilde: np.ndarray) -> float:
        return pip_loss(X, X_tilde)

    def compute_cached(
        self, X: np.ndarray, X_tilde: np.ndarray, cache: DecompositionCache | None = None
    ) -> float:
        return pip_loss(X, X_tilde, cache=cache)
