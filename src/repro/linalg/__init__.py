"""High-performance numerical-kernel layer.

The GEMM-heavy kernels of the measure suite and the embedding trainers:

* blocked measure kernels (:mod:`repro.linalg.kernels`) that never
  materialise ``(n, n)`` intermediates and keep reductions in float64;
* :func:`~repro.linalg.kernels.scatter_add_rows` -- the row scatter-add under
  the MC, GloVe, fastText and TransE trainers: ``np.add.at`` on a 2-D table
  run as one 1-D ``add.at`` on its flat view, bit-identical to the 2-D call.

Every decomposition (measure, anchor and Procrustes SVDs) is the exact
float64 ``np.linalg.svd(X, full_matrices=False)`` the paper evaluates.
"""

from repro.linalg.kernels import (
    cosine_top_k,
    gram_frobenius_diff_sq,
    normalize_rows,
    row_set_overlap,
    scatter_add_rows,
)

__all__ = [
    "cosine_top_k",
    "gram_frobenius_diff_sq",
    "normalize_rows",
    "row_set_overlap",
    "scatter_add_rows",
]
