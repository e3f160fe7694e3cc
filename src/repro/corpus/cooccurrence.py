"""Co-occurrence statistics and the PPMI transform.

GloVe and matrix completion both factor a co-occurrence matrix built from the
corpus with a symmetric context window (the paper uses window size 15).  The
matrix-completion algorithm factors the *positive pointwise mutual
information* (PPMI) matrix rather than the raw counts (Bullinaria & Levy,
2007), so :func:`ppmi_matrix` is provided as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.corpus.vocabulary import Vocabulary

__all__ = [
    "CooccurrenceMatrix",
    "build_cooccurrence",
    "ppmi_matrix",
]


@dataclass
class CooccurrenceMatrix:
    """Sparse symmetric word-word co-occurrence counts.

    Attributes
    ----------
    matrix:
        ``scipy.sparse.csr_matrix`` of shape ``(n, n)`` with (possibly
        distance-weighted) co-occurrence counts.
    vocab:
        The vocabulary defining row/column order.
    window_size:
        The symmetric context window used to build the matrix.
    distance_weighting:
        Whether counts were weighted by ``1/distance`` (GloVe convention).
    """

    matrix: sp.csr_matrix
    vocab: Vocabulary
    window_size: int
    distance_weighting: bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def ppmi(self, *, shift: float = 0.0) -> sp.csr_matrix:
        """Positive PMI transform of the counts (see :func:`ppmi_matrix`)."""
        return ppmi_matrix(self.matrix, shift=shift)


def build_cooccurrence(
    documents: Iterable[Sequence[int] | np.ndarray],
    vocab_size: int | Vocabulary,
    *,
    window_size: int = 8,
    distance_weighting: bool = True,
    symmetric: bool = True,
) -> sp.csr_matrix:
    """Build a sparse co-occurrence matrix from id-encoded documents.

    Parameters
    ----------
    documents:
        Iterable of documents, each a sequence of integer word ids already
        encoded in the target vocabulary (negative ids are skipped).
    vocab_size:
        Vocabulary size, or the :class:`Vocabulary` itself.
    window_size:
        Symmetric window radius.
    distance_weighting:
        Weight a pair at distance ``d`` by ``1/d`` (GloVe style) instead of 1.
    symmetric:
        Accumulate counts for both (word, context) and (context, word).

    Returns
    -------
    scipy.sparse.csr_matrix
        ``(n, n)`` float64 co-occurrence matrix.
    """
    n = len(vocab_size) if isinstance(vocab_size, Vocabulary) else int(vocab_size)
    if n <= 0:
        raise ValueError("vocab_size must be positive")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    counts = _offset_counts(documents, n, window_size)
    return _materialize(
        counts, n, distance_weighting=distance_weighting, symmetric=symmetric
    )


def _offset_counts(
    documents: Iterable[Sequence[int] | np.ndarray], n: int, window_size: int
) -> list[sp.csr_matrix]:
    """Exact directional pair counts per window offset.

    ``counts[d - 1][i, j]`` is the number of times word ``j`` follows word
    ``i`` at distance ``d``, as an int64 CSR matrix.  Counting in integers
    first and weighting once per offset in :func:`_materialize` fixes the
    float operations and their order; MC, GloVe and PPMI-SVD vectors depend
    on the resulting matrix bit for bit.
    """
    rows: list[list[np.ndarray]] = [[] for _ in range(window_size)]
    cols: list[list[np.ndarray]] = [[] for _ in range(window_size)]
    for doc in documents:
        ids = np.asarray(doc, dtype=np.int64)
        ids = ids[(ids >= 0) & (ids < n)]
        length = len(ids)
        if length < 2:
            continue
        for offset in range(1, min(window_size, length - 1) + 1):
            rows[offset - 1].append(ids[:-offset])
            cols[offset - 1].append(ids[offset:])
    counts: list[sp.csr_matrix] = []
    for offset in range(window_size):
        if not rows[offset]:
            counts.append(sp.csr_matrix((n, n), dtype=np.int64))
            continue
        row_idx = np.concatenate(rows[offset])
        col_idx = np.concatenate(cols[offset])
        data = np.ones(len(row_idx), dtype=np.int64)
        mat = sp.coo_matrix((data, (row_idx, col_idx)), shape=(n, n), dtype=np.int64)
        counts.append(mat.tocsr())
    return counts


def _materialize(
    counts: Sequence[sp.csr_matrix],
    n: int,
    *,
    distance_weighting: bool,
    symmetric: bool,
) -> sp.csr_matrix:
    """Weighted float64 co-occurrence matrix from per-offset integer counts.

    The only float operations are ``count * (1/d)`` and the sum over offsets
    in ascending ``d`` order, so any two count sets that are numerically
    equal materialise to bit-identical matrices.
    """
    total = sp.csr_matrix((n, n), dtype=np.float64)
    for offset, mat in enumerate(counts, start=1):
        if mat.nnz == 0:
            continue
        directional = (mat + mat.T) if symmetric else mat
        weight = (1.0 / offset) if distance_weighting else 1.0
        total = total + directional.astype(np.float64) * weight
    total.sum_duplicates()
    return total


def ppmi_matrix(counts: sp.spmatrix | np.ndarray, *, shift: float = 0.0) -> sp.csr_matrix:
    """Positive pointwise mutual information of a co-occurrence matrix.

    ``PPMI[i, j] = max(0, log(P(i, j) / (P(i) P(j))) - shift)`` computed only
    on the non-zero entries of ``counts`` (zero co-occurrences stay zero, which
    is what makes matrix *completion* rather than factorization meaningful).

    Parameters
    ----------
    counts:
        Sparse or dense non-negative co-occurrence counts.
    shift:
        Optional shift (``log k`` for the shifted-PPMI variant).
    """
    mat = sp.coo_matrix(counts, dtype=np.float64)
    if (mat.data < 0).any():
        raise ValueError("co-occurrence counts must be non-negative")
    total = mat.data.sum()
    if total <= 0:
        return sp.csr_matrix(mat.shape, dtype=np.float64)

    csr = mat.tocsr()
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    col_sums = np.asarray(csr.sum(axis=0)).ravel()

    coo = csr.tocoo()
    with np.errstate(divide="ignore"):
        pmi = np.log(coo.data * total) - np.log(row_sums[coo.row] * col_sums[coo.col])
    pmi -= shift
    positive = pmi > 0
    result = sp.coo_matrix(
        (pmi[positive], (coo.row[positive], coo.col[positive])),
        shape=csr.shape,
        dtype=np.float64,
    )
    return result.tocsr()
