"""Common interface of the embedding distance measures.

Besides the abstract measure class this module hosts the shared-decomposition
machinery of the grid engine: a :class:`DecompositionCache` memoises the SVD
of each embedding matrix (and the cross products between left singular
bases) so that one decomposition per aligned pair serves the EIS, eigenspace
overlap and PIP loss measures instead of one each.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass

import numpy as np

from repro.embeddings.base import Embedding
from repro.utils.registry import Registry
from repro.utils.validation import check_embedding_pair

__all__ = [
    "MEASURES",
    "EmbeddingDistanceMeasure",
    "MeasureResult",
    "DecompositionCache",
    "left_singular_vectors",
    "rank_restricted",
    "aligned_top_k_pair",
]

#: Registry of distance measures keyed by the names used in the paper's tables.
MEASURES: Registry = Registry("embedding distance measure")

#: The paper computes every measure over the top-10k most frequent words only
#: (Section 2.4); our vocabularies are smaller so the slice is usually a no-op,
#: but the mechanism is preserved (and warned about, see ``aligned_top_k_pair``).
DEFAULT_TOP_K = 10_000


def rank_restricted(U: np.ndarray, S: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Restrict left singular vectors to the numerical rank of the matrix.

    Uses the standard tolerance ``S.max() * max(shape) * eps`` and keeps at
    least one column, matching both the EIS and eigenspace-overlap papers.
    """
    if S.size == 0:
        return U
    tol = S.max() * max(shape) * np.finfo(np.float64).eps
    rank = max(int(np.sum(S > tol)), 1)
    return U[:, :rank]


class DecompositionCache:
    """Memoises matrix decompositions shared between the measures of one batch.

    Keys are object identities: within a measure batch the *same* ndarray
    objects are handed to every measure, so ``id``-based lookup is exact (a
    strong reference to the keyed array is kept, which also guards against id
    reuse).  Every :func:`~repro.measures.batch.compute_measure_batch` call
    builds its own cache and drops it with the batch; a later batch aligns
    its pair into new arrays, so nothing would hit across batches anyway.
    ``hits``/``misses`` count lookups the way the artifact store does.
    """

    def __init__(self) -> None:
        self._svd: dict[
            int, tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]
        ] = {}
        self._cross: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self.hits = 0
        self.misses = 0

    def svd(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, S, Vt)`` of ``X``, computed at most once per array."""
        entry = self._svd.get(id(X))
        if entry is not None and entry[0] is X:
            self.hits += 1
            return entry[1]
        self.misses += 1
        decomposition = np.linalg.svd(X, full_matrices=False)
        self._svd[id(X)] = (X, decomposition)
        return decomposition

    def left_singular(self, X: np.ndarray) -> np.ndarray:
        """Rank-restricted left singular vectors of ``X``."""
        U, S, _ = self.svd(X)
        return rank_restricted(U, S, X.shape)

    def cross(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``U_X^T @ U_Y`` for the full (thin, unrestricted) singular bases."""
        key = (id(X), id(Y))
        entry = self._cross.get(key)
        if entry is not None and entry[0] is X and entry[1] is Y:
            self.hits += 1
            return entry[2]
        self.misses += 1
        product = self.svd(X)[0].T @ self.svd(Y)[0]
        self._cross[key] = (X, Y, product)
        return product


def left_singular_vectors(
    X: np.ndarray, cache: DecompositionCache | None = None
) -> np.ndarray:
    """Rank-restricted left singular vectors of ``X``, via ``cache`` when given."""
    if cache is not None:
        return cache.left_singular(X)
    U, S, _ = np.linalg.svd(X, full_matrices=False)
    return rank_restricted(U, S, X.shape)


@dataclass(frozen=True)
class MeasureResult:
    """A measure evaluation: the value plus identifying metadata."""

    measure: str
    value: float
    n_words: int
    details: dict | None = None


def aligned_top_k_pair(
    a: Embedding, b: Embedding, *, top_k: int | None = DEFAULT_TOP_K
) -> tuple[Embedding, Embedding]:
    """Row-aligned restriction of ``a`` and ``b`` to their common top-``k`` words.

    When ``top_k`` exceeds the common vocabulary the slice is a no-op; that
    used to happen silently on small vocabularies, so it now emits a warning
    (the value is still computed, over every common word).
    """
    ra, rb = Embedding.aligned_pair(a, b, top_k=top_k)
    if top_k is not None and ra.n_words < top_k:
        warnings.warn(
            f"top_k={top_k} exceeds the common vocabulary of {ra.n_words} words; "
            "the top-k restriction is a no-op and the measure is computed over "
            "all common words",
            UserWarning,
            stacklevel=3,
        )
    return ra, rb


class EmbeddingDistanceMeasure(abc.ABC):
    """A dissimilarity between two embeddings of the same vocabulary.

    Subclasses implement :meth:`compute` on row-aligned matrices; the
    :meth:`compute_embeddings` wrapper handles restricting a pair of
    :class:`~repro.embeddings.base.Embedding` objects to their common
    (top-``k``) vocabulary first.  Measures built from matrix decompositions
    additionally override :meth:`compute_cached` to pull their SVDs from a
    shared :class:`DecompositionCache` (see :mod:`repro.measures.batch`).
    """

    #: Name used in the paper's tables (e.g. ``"eis"``, ``"1-knn"``).
    name: str = "measure"
    #: Whether the same embedding dimension is required for both inputs.
    requires_same_dim: bool = False

    @abc.abstractmethod
    def compute(self, X: np.ndarray, X_tilde: np.ndarray) -> float:
        """Dissimilarity between row-aligned embedding matrices."""

    def compute_cached(
        self, X: np.ndarray, X_tilde: np.ndarray, cache: DecompositionCache | None = None
    ) -> float:
        """Like :meth:`compute`, reusing decompositions from ``cache`` if able.

        The default implementation ignores the cache; decomposition-based
        measures override it.
        """
        return self.compute(X, X_tilde)

    def _validate(self, X: np.ndarray, X_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return check_embedding_pair(X, X_tilde, same_dim=self.requires_same_dim)

    def compute_aligned(
        self,
        ra: Embedding,
        rb: Embedding,
        *,
        cache: DecompositionCache | None = None,
    ) -> MeasureResult:
        """Evaluate on an already row-aligned embedding pair."""
        value = self.compute_cached(ra.vectors, rb.vectors, cache)
        return MeasureResult(measure=self.name, value=float(value), n_words=ra.n_words)

    def compute_embeddings(
        self,
        a: Embedding,
        b: Embedding,
        *,
        top_k: int | None = DEFAULT_TOP_K,
        cache: DecompositionCache | None = None,
    ) -> MeasureResult:
        """Evaluate the measure on the common (top-``k``) vocabulary of ``a`` and ``b``."""
        ra, rb = aligned_top_k_pair(a, b, top_k=top_k)
        return self.compute_aligned(ra, rb, cache=cache)

    def __call__(self, X: np.ndarray, X_tilde: np.ndarray) -> float:
        return self.compute(X, X_tilde)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"
