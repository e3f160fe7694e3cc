"""Common interface of the embedding distance measures.

Besides the abstract measure class this module hosts the shared-decomposition
machinery of the grid engine: a :class:`DecompositionCache` memoises the SVD
of each embedding matrix (and the cross products between left singular
bases) so that one decomposition per aligned pair serves the EIS, eigenspace
overlap and PIP loss measures instead of one each.
"""

from __future__ import annotations

import abc
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.embeddings.base import Embedding
from repro.utils.registry import Registry
from repro.utils.validation import check_embedding_pair

__all__ = [
    "MEASURES",
    "DEFAULT_CACHE_ENTRIES",
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


#: Default entry bound of a :class:`DecompositionCache`; generous for one
#: measure batch (which needs two SVDs and one cross product) while keeping
#: long-lived caches, e.g. one shared across a whole grid run, bounded.
DEFAULT_CACHE_ENTRIES = 128


class DecompositionCache:
    """Memoises matrix decompositions shared between measures on one pair.

    Keys are object identities: within a measure batch the *same* ndarray
    objects are handed to every measure, so ``id``-based lookup is exact (a
    strong reference to the keyed array is kept, which also guards against id
    reuse).

    The cache is LRU-bounded (``max_entries`` per table, ``None`` = unbounded)
    so a cache shared across a long grid run cannot grow memory without limit;
    ``hits``/``misses``/``evictions`` counters expose its behaviour the same
    way :class:`~repro.engine.store.ArtifactStore` counters do.

    The cache is safe to share across threads (the serving layer keeps one
    long-lived instance under concurrent requests): table bookkeeping happens
    under a lock, while the decompositions themselves compute outside it so
    unrelated requests don't serialise.  Two threads missing the same array
    simultaneously may both compute it (the duplicate work is benign and the
    first insert wins); the tables can never be observed mid-mutation.
    """

    def __init__(self, *, max_entries: int | None = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._svd: OrderedDict[
            int, tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]
        ] = OrderedDict()
        self._cross: OrderedDict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._table_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def stats(self) -> dict[str, int]:
        """Counter snapshot (mirrors the artifact store's per-kind stats).

        ``bytes_in_memory`` gauges the private memory the cache itself holds
        onto: the factor arrays of cached SVDs and the cross products.  The
        keyed source arrays are excluded -- they are referenced for identity
        pinning only and are owned (and accounted for) by their producers.
        """
        with self._table_lock:
            bytes_held = sum(
                arr.nbytes
                for _, decomposition in self._svd.values()
                for arr in decomposition
            ) + sum(entry[2].nbytes for entry in self._cross.values())
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._svd) + len(self._cross),
                "bytes_in_memory": int(bytes_held),
            }

    def _evict(self, table: OrderedDict) -> None:
        # Caller holds ``_table_lock``.
        if self.max_entries is not None:
            while len(table) > self.max_entries:
                table.popitem(last=False)
                self.evictions += 1

    def svd(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, S, Vt)`` of ``X``, computed at most once per array."""
        with self._table_lock:
            entry = self._svd.get(id(X))
            if entry is not None and entry[0] is X:
                self.hits += 1
                self._svd.move_to_end(id(X))
                return entry[1]
            self.misses += 1
        decomposition = np.linalg.svd(X, full_matrices=False)
        with self._table_lock:
            self._svd[id(X)] = (X, decomposition)
            self._evict(self._svd)
        return decomposition

    def left_singular(self, X: np.ndarray) -> np.ndarray:
        """Rank-restricted left singular vectors of ``X``."""
        U, S, _ = self.svd(X)
        return rank_restricted(U, S, X.shape)

    def cross(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``U_X^T @ U_Y`` for the full (thin, unrestricted) singular bases."""
        key = (id(X), id(Y))
        with self._table_lock:
            entry = self._cross.get(key)
            if entry is not None and entry[0] is X and entry[1] is Y:
                self.hits += 1
                self._cross.move_to_end(key)
                return entry[2]
        U_x = self.svd(X)[0]
        U_y = self.svd(Y)[0]
        product = U_x.T @ U_y
        with self._table_lock:
            self.misses += 1
            self._cross[key] = (X, Y, product)
            self._evict(self._cross)
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
