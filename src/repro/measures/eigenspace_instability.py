"""The eigenspace instability measure (Section 4, the paper's core contribution).

For embeddings ``X = U S V^T`` and ``X~ = U~ S~ V~^T`` and a positive
semidefinite matrix ``Sigma``, the eigenspace instability (EI) measure is

    EI_Sigma(X, X~) = tr((U U^T + U~ U~^T - 2 U~ U~^T U U^T) Sigma) / tr(Sigma).

Proposition 1 shows that with ``Sigma = E[y y^T]`` this equals the expected
normalised disagreement between the linear-regression models trained on ``X``
and ``X~`` with random label vector ``y``.  In practice the paper instantiates
``Sigma = (E E^T)^alpha + (E~ E~^T)^alpha`` where ``E`` and ``E~`` are
high-dimensional full-precision "anchor" embeddings and ``alpha`` (default 3)
controls how much the high-eigenvalue directions dominate.

Two implementations are provided:

* :func:`eigenspace_instability` -- the efficient ``O(n d^2)`` formulation of
  Appendix B.1 that never materialises an ``n x n`` Gram matrix;
* :func:`eigenspace_instability_exact` -- the direct definition (builds
  ``U U^T``), used in tests to validate the efficient path and in the
  Proposition 1 Monte-Carlo check.

The measure class cooperates with the grid engine: left singular vectors of
the scored pair come from a shared :class:`~repro.measures.base.DecompositionCache`
and the anchor SVD factors -- identical for every (dimension, precision) cell
of the same (algorithm, seed) -- are computed once and memoised (or injected
pre-computed from the engine's artifact store via :class:`AnchorFactors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.base import Embedding
from repro.measures.base import (
    DEFAULT_TOP_K,
    MEASURES,
    DecompositionCache,
    EmbeddingDistanceMeasure,
    MeasureResult,
    aligned_top_k_pair,
    left_singular_vectors,
)
from repro.utils.validation import check_array, check_embedding_pair

__all__ = [
    "AnchorFactors",
    "EigenspaceInstability",
    "anchor_factors",
    "eigenspace_instability",
    "eigenspace_instability_exact",
    "sigma_from_anchors",
]


@dataclass(frozen=True)
class AnchorFactors:
    """SVD factors of an anchor pair defining ``Sigma``: ``P diag(Ra^2) P^T + ...``.

    ``P``/``P_t`` are the left singular vectors of ``E``/``E~`` and
    ``Ra``/``Ra_t`` the singular values raised to ``alpha``.  ``words`` names
    the vocabulary rows the factors were computed over (``None`` = positional).
    """

    P: np.ndarray
    Ra: np.ndarray
    P_t: np.ndarray
    Ra_t: np.ndarray
    words: tuple[str, ...] | None = None

    @property
    def n_words(self) -> int:
        return int(self.P.shape[0])


def anchor_factors(
    E: np.ndarray, E_tilde: np.ndarray, *, alpha: float = 3.0,
    words: tuple[str, ...] | None = None,
) -> AnchorFactors:
    """Decompose an anchor pair once so many grid cells can share the factors."""
    E = check_array(E, name="E", ndim=2)
    E_tilde = check_array(E_tilde, name="E_tilde", ndim=2)
    if E.shape[0] != E_tilde.shape[0]:
        raise ValueError("anchor embeddings must share a vocabulary")
    P, R, _ = np.linalg.svd(E, full_matrices=False)
    P_t, R_t, _ = np.linalg.svd(E_tilde, full_matrices=False)
    return AnchorFactors(P=P, Ra=R**alpha, P_t=P_t, Ra_t=R_t**alpha, words=words)


def sigma_from_anchors(E: np.ndarray, E_tilde: np.ndarray, alpha: float = 3.0) -> np.ndarray:
    """Materialise ``Sigma = (E E^T)^alpha + (E~ E~^T)^alpha`` (test-scale only).

    Exponentiation is in the spectral sense: ``(E E^T)^alpha = P R^{2 alpha} P^T``
    for ``E = P R W^T``.  Only used by the exact/test path -- the efficient path
    never forms this ``n x n`` matrix.
    """
    factors = anchor_factors(E, E_tilde, alpha=alpha)
    return (factors.P * (factors.Ra**2)) @ factors.P.T + (
        factors.P_t * (factors.Ra_t**2)
    ) @ factors.P_t.T


def eigenspace_instability_exact(
    X: np.ndarray, X_tilde: np.ndarray, sigma: np.ndarray
) -> float:
    """Direct evaluation of Definition 2 given an explicit ``Sigma``."""
    X, X_tilde = check_embedding_pair(X, X_tilde)
    sigma = check_array(sigma, name="sigma", ndim=2)
    n = X.shape[0]
    if sigma.shape != (n, n):
        raise ValueError(f"sigma must be ({n}, {n}), got {sigma.shape}")
    U = left_singular_vectors(X)
    U_t = left_singular_vectors(X_tilde)
    P_u = U @ U.T
    P_ut = U_t @ U_t.T
    numerator = np.trace((P_u + P_ut - 2.0 * P_ut @ P_u) @ sigma)
    denominator = np.trace(sigma)
    if denominator <= 0:
        raise ValueError("sigma must have positive trace")
    return float(numerator / denominator)


def _instability_from_factors(
    U: np.ndarray, U_t: np.ndarray, factors: AnchorFactors
) -> float:
    """Trace expansion of Appendix B.1 on pre-decomposed subspaces/anchors."""
    UtU = U_t.T @ U                      # (d~, d)

    def term(Panchor: np.ndarray, Ralpha: np.ndarray) -> float:
        # tr(R^a P^T (UU^T + U~U~^T - 2 U~U~^T U U^T) P R^a) expanded as in B.1.
        A = U.T @ Panchor                # (d, dE)
        B = U_t.T @ Panchor              # (d~, dE)
        t1 = float(np.sum((A * Ralpha[np.newaxis, :]) ** 2, dtype=np.float64))
        t2 = float(np.sum((B * Ralpha[np.newaxis, :]) ** 2, dtype=np.float64))
        M = UtU @ (A * Ralpha[np.newaxis, :])     # (d~, dE)
        t3 = float(np.sum((B * Ralpha[np.newaxis, :]) * M, dtype=np.float64))
        return t1 + t2 - 2.0 * t3

    numerator = term(factors.P, factors.Ra) + term(factors.P_t, factors.Ra_t)
    denominator = float(
        np.sum(factors.Ra**2, dtype=np.float64) + np.sum(factors.Ra_t**2, dtype=np.float64)
    )
    if denominator <= 0:
        raise ValueError("anchor embeddings produce a zero-trace Sigma")
    # Numerical round-off can push the value a hair outside [0, ~2]; clip at 0.
    return float(max(numerator / denominator, 0.0))


def eigenspace_instability(
    X: np.ndarray,
    X_tilde: np.ndarray,
    E: np.ndarray,
    E_tilde: np.ndarray,
    *,
    alpha: float = 3.0,
    cache: DecompositionCache | None = None,
) -> float:
    """Efficient eigenspace instability with ``Sigma = (EE^T)^a + (E~E~^T)^a``.

    Implements the trace expansion of Appendix B.1 in ``O(n d^2)`` time and
    ``O(d^2)`` extra memory, where all four matrices are "tall and thin".

    Parameters
    ----------
    X, X_tilde:
        The embedding pair being scored (row-aligned over the same words).
    E, E_tilde:
        The anchor embeddings defining ``Sigma`` (the paper uses the
        highest-dimensional full-precision Wiki'17/Wiki'18 embeddings).
    alpha:
        Eigenvalue weighting exponent (paper default: 3).
    cache:
        Optional shared decomposition cache; the SVDs of ``X`` and ``X_tilde``
        are reused from (or deposited into) it.
    """
    X, X_tilde = check_embedding_pair(X, X_tilde)
    n = X.shape[0]
    for name, M in (("E", np.asarray(E)), ("E_tilde", np.asarray(E_tilde))):
        if M.shape[0] != n:
            raise ValueError(f"{name} must have {n} rows, got {M.shape[0]}")

    U = left_singular_vectors(X, cache)
    U_t = left_singular_vectors(X_tilde, cache)
    return _instability_from_factors(U, U_t, anchor_factors(E, E_tilde, alpha=alpha))


@MEASURES.register("eis")
class EigenspaceInstability(EmbeddingDistanceMeasure):
    """Eigenspace instability measure with anchor-defined ``Sigma``.

    Parameters
    ----------
    anchor_a, anchor_b:
        Anchor embeddings ``E`` and ``E~`` (either :class:`Embedding` objects
        or raw matrices).  In the paper these are the 800-dimensional
        full-precision Wiki'17/Wiki'18 embeddings of the same algorithm.
    alpha:
        Eigenvalue weighting exponent.
    factors:
        Optional pre-computed anchor factors (e.g. loaded from the engine's
        artifact store); used whenever the scored pair's vocabulary matches,
        otherwise the factors are re-derived from the anchors and memoised.
    """

    name = "eis"

    def __init__(
        self,
        anchor_a: Embedding | np.ndarray,
        anchor_b: Embedding | np.ndarray,
        *,
        alpha: float = 3.0,
        factors: AnchorFactors | None = None,
    ) -> None:
        self.anchor_a = anchor_a
        self.anchor_b = anchor_b
        self.alpha = float(alpha)
        self.factors = factors
        #: Anchor factors memoised per vocabulary selection so that one SVD
        #: of the (large) anchors serves every grid cell sharing them.
        self._factor_memo: dict[object, AnchorFactors] = {}

    def _anchor_matrices(self, n_words: int) -> tuple[np.ndarray, np.ndarray]:
        def resolve(anchor) -> np.ndarray:
            mat = anchor.vectors if isinstance(anchor, Embedding) else np.asarray(anchor)
            if mat.shape[0] < n_words:
                raise ValueError(
                    f"anchor embedding has {mat.shape[0]} rows but {n_words} are required"
                )
            return mat[:n_words]

        return resolve(self.anchor_a), resolve(self.anchor_b)

    def _positional_factors(self, n_words: int) -> AnchorFactors:
        """Factors of the anchors sliced to the first ``n_words`` rows."""
        if (
            self.factors is not None
            and self.factors.words is None
            and self.factors.n_words == n_words
        ):
            return self.factors
        memo = self._factor_memo.get(n_words)
        if memo is None:
            E, E_t = self._anchor_matrices(n_words)
            memo = self._factor_memo[n_words] = anchor_factors(E, E_t, alpha=self.alpha)
        return memo

    def _word_matched_factors(self, words: list[str]) -> AnchorFactors:
        """Factors of the anchors row-matched to ``words`` (by vocabulary)."""
        key = tuple(words)
        if self.factors is not None and self.factors.words == key:
            return self.factors
        memo = self._factor_memo.get(key)
        if memo is None:
            anchors = []
            for anchor in (self.anchor_a, self.anchor_b):
                if isinstance(anchor, Embedding):
                    ids = [anchor.vocab.word_to_id(w) for w in words]
                    if any(i is None for i in ids):
                        raise ValueError("anchor embedding is missing words from the pair")
                    anchors.append(anchor.vectors[np.asarray(ids, dtype=np.int64)])
                else:
                    mat = np.asarray(anchor)
                    if mat.shape[0] < len(words):
                        raise ValueError(
                            f"anchor embedding has {mat.shape[0]} rows but "
                            f"{len(words)} are required"
                        )
                    anchors.append(mat[: len(words)])
            memo = self._factor_memo[key] = anchor_factors(
                anchors[0], anchors[1], alpha=self.alpha, words=key
            )
        return memo

    def compute(self, X: np.ndarray, X_tilde: np.ndarray) -> float:
        return self.compute_cached(X, X_tilde, None)

    def compute_cached(
        self, X: np.ndarray, X_tilde: np.ndarray, cache: DecompositionCache | None = None
    ) -> float:
        X, X_tilde = check_embedding_pair(X, X_tilde)
        factors = self._positional_factors(X.shape[0])
        U = left_singular_vectors(X, cache)
        U_t = left_singular_vectors(X_tilde, cache)
        return _instability_from_factors(U, U_t, factors)

    def compute_aligned(
        self,
        ra: Embedding,
        rb: Embedding,
        *,
        cache: DecompositionCache | None = None,
    ) -> MeasureResult:
        """Evaluate on an aligned pair, row-matching the anchors by word.

        Raw-matrix anchors are assumed to be row-aligned with ``ra``.
        """
        X, X_tilde = check_embedding_pair(ra.vectors, rb.vectors)
        factors = self._word_matched_factors(ra.vocab.words)
        U = left_singular_vectors(X, cache)
        U_t = left_singular_vectors(X_tilde, cache)
        value = _instability_from_factors(U, U_t, factors)
        return MeasureResult(measure=self.name, value=float(value), n_words=ra.n_words)

    def compute_embeddings(
        self,
        a: Embedding,
        b: Embedding,
        *,
        top_k: int | None = DEFAULT_TOP_K,
        cache: DecompositionCache | None = None,
    ) -> MeasureResult:
        """Evaluate over the common vocabulary, slicing the anchors to match."""
        ra, rb = aligned_top_k_pair(a, b, top_k=top_k)
        return self.compute_aligned(ra, rb, cache=cache)
