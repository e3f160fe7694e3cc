"""High-performance numerical-kernel layer.

Every decomposition and GEMM-heavy kernel in the measure suite and the
pipeline routes through this package, which provides

* a :class:`~repro.linalg.policy.KernelPolicy` selecting exact vs randomized
  SVD (``auto`` by shape/rank) and the working precision (float32/float64),
  configurable process-wide from the experiment runner's
  ``--kernel-policy`` / ``--dtype`` flags;
* :func:`~repro.linalg.svd.randomized_svd` -- a seeded, deterministic
  Halko-style range finder with power iterations, and the policy-dispatched
  :func:`~repro.linalg.svd.compute_svd` entry point;
* blocked measure kernels (:mod:`repro.linalg.kernels`) that never
  materialise ``(n, n)`` intermediates and keep reductions in float64;
* :func:`~repro.linalg.kernels.scatter_add_rows` -- the row scatter-add under
  every SGD embedding and KGE trainer: ``np.add.at`` on a 2-D table run as one
  1-D ``add.at`` on its flat view, bit-identical to the 2-D call.
"""

from repro.linalg.policy import (
    KERNEL_DTYPES,
    SVD_METHODS,
    KernelPolicy,
    configure_default_policy,
    default_policy,
)
from repro.linalg.svd import compute_svd, exact_svd, randomized_svd
from repro.linalg.kernels import (
    cosine_top_k,
    gram_frobenius_diff_sq,
    normalize_rows,
    row_set_overlap,
    scatter_add_rows,
)

__all__ = [
    "KERNEL_DTYPES",
    "SVD_METHODS",
    "KernelPolicy",
    "compute_svd",
    "configure_default_policy",
    "cosine_top_k",
    "default_policy",
    "exact_svd",
    "gram_frobenius_diff_sq",
    "normalize_rows",
    "randomized_svd",
    "row_set_overlap",
    "scatter_add_rows",
]
