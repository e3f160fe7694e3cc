"""Hot-loop kernels of the measure suite and the embedding trainers.

The measure kernels are blocked GEMMs, written so that

* no ``(n, n)`` intermediate is ever materialised -- cosine similarities are
  computed in query blocks of at most ``block_size`` rows, and the Gram
  Frobenius terms of the PIP loss reduce through ``(d, d)`` products only;
* no Python-level per-row loop survives -- the k-NN set overlap is a single
  vectorised ``searchsorted`` over row-offset-encoded neighbour ids;
* scalar reductions accumulate in float64 regardless of the input dtype.

:func:`scatter_add_rows` applies the row updates of the SGD-trained MC,
GloVe, fastText and TransE embeddings (CBOW's updates are sparse products,
see :mod:`repro.embeddings.word2vec`).  It is ``np.add.at`` on a 2-D
table routed through numpy's faster 1-D ``add.at`` on the flat view.  Each
element still receives its updates one at a time in index order, so rows
that repeat in a batch accumulate exactly as before and the trained vectors
are bit-identical to the 2-D ``np.add.at`` result.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_rows",
    "cosine_top_k",
    "row_set_overlap",
    "gram_frobenius_diff_sq",
    "scatter_add_rows",
]


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-normalised copy of ``X`` in its own dtype (zero rows stay zero)."""
    X = np.asarray(X)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def cosine_top_k(
    X: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    block_size: int = 512,
) -> np.ndarray:
    """Indices of the ``k`` most cosine-similar rows to each query row.

    The query rows themselves are excluded.  Similarities are computed one
    query block at a time, so peak extra memory is ``block_size * n`` floats
    instead of ``len(queries) * n``; within a block the top-k is selected with
    ``argpartition`` (order inside the top-k is unspecified -- callers use set
    semantics).  Per-row results are independent of the blocking, so any
    ``block_size`` yields identical neighbour sets.
    """
    X = np.asarray(X)
    queries = np.asarray(queries, dtype=np.int64)
    n = X.shape[0]
    k = min(int(k), n - 1)
    if k < 1:
        raise ValueError("k must be >= 1 and the matrix must have >= 2 rows")
    block_size = max(int(block_size), 1)
    normed = normalize_rows(X)
    out = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), block_size):
        block = queries[start:start + block_size]
        sims = normed[block] @ normed.T                       # (block, n)
        sims[np.arange(len(block)), block] = -np.inf
        out[start:start + len(block)] = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
    return out


def row_set_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Size of the row-wise set intersection of two integer id matrices.

    ``a`` and ``b`` are ``(q, k)`` arrays of non-negative ids whose rows are
    sets (no duplicates within a row, as produced by :func:`cosine_top_k`).
    Equivalent to ``len(np.intersect1d(a[i], b[i]))`` per row, but vectorised:
    each row is shifted into its own disjoint id range, after which one global
    ``searchsorted`` answers every membership query at once.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"need (q, k) id matrices with equal q, got {a.shape} and {b.shape}")
    q = a.shape[0]
    if a.size == 0 or b.size == 0:
        return np.zeros(q, dtype=np.int64)
    if a.min() < 0 or b.min() < 0:
        raise ValueError("ids must be non-negative")
    stride = int(max(a.max(), b.max())) + 1
    offsets = np.arange(q, dtype=np.int64)[:, np.newaxis] * stride
    # Row-sorted + strictly increasing row offsets => globally sorted.
    flat_b = np.sort(b + offsets, axis=1).ravel()
    flat_a = (a + offsets).ravel()
    pos = np.searchsorted(flat_b, flat_a)
    found = flat_b[np.minimum(pos, flat_b.size - 1)] == flat_a
    return found.reshape(q, a.shape[1]).sum(axis=1)


def gram_frobenius_diff_sq(
    X: np.ndarray, Y: np.ndarray, *, block_rows: int | None = None
) -> float:
    """``||X X^T - Y Y^T||_F^2`` without materialising an ``(n, n)`` Gram matrix.

    Uses ``||X X^T - Y Y^T||_F^2 = ||X^T X||_F^2 + ||Y^T Y||_F^2
    - 2 ||X^T Y||_F^2``; the three ``(d, d)``/``(d, d')`` products are
    optionally accumulated over row blocks (``block_rows``) so very tall
    matrices never need one monolithic GEMM workspace, and every final
    reduction runs in float64.
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row counts must match, got {X.shape[0]} and {Y.shape[0]}")

    def cross(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if block_rows is None or A.shape[0] <= block_rows:
            return A.T @ B
        acc = np.zeros((A.shape[1], B.shape[1]), dtype=np.float64)
        for start in range(0, A.shape[0], block_rows):
            acc += A[start:start + block_rows].T @ B[start:start + block_rows]
        return acc

    xtx = cross(X, X)
    yty = cross(Y, Y)
    xty = cross(X, Y)
    return float(
        np.sum(xtx**2, dtype=np.float64)
        + np.sum(yty**2, dtype=np.float64)
        - 2.0 * np.sum(xty**2, dtype=np.float64)
    )


def scatter_add_rows(X: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """In place, ``np.add.at(X, index, values)`` for a C-contiguous 2-D ``X``.

    ``index`` is a 1-D integer array of row ids (repeats allowed, negative ids
    count from the end) and ``values`` holds one ``(d,)`` update per id.  The
    update runs as one 1-D ``np.add.at`` on ``X.reshape(-1)`` with the flat
    ids ``index * d + arange(d)``: every element gets its updates one at a
    time in ``index`` order, so the result equals the 2-D call bit for bit.

    Raises ``ValueError`` when ``X`` is not a C-contiguous 2-D array (its flat
    view would be a copy and the update would be lost) or when ``values`` is
    not ``(len(index), d)`` (a transposed array of the same size would
    otherwise land on the wrong elements).
    """
    if X.ndim != 2 or not X.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous 2-D array")
    index = np.asarray(index)
    values = np.asarray(values)
    d = X.shape[1]
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"index must be a 1-D integer array, got {index.dtype} {index.shape}")
    if values.shape != (len(index), d):
        raise ValueError(f"values must have shape {(len(index), d)}, got {values.shape}")
    flat = index.astype(np.intp, copy=False)[:, np.newaxis] * d + np.arange(d)
    np.add.at(X.reshape(-1), flat.reshape(-1), values.reshape(-1))
