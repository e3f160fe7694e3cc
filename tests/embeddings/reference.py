"""The ``np.add.at`` reference that the trainers' scatter kernel must match.

Every SGD embedding and KGE trainer applies its row updates through
:func:`repro.linalg.kernels.scatter_add_rows`, looked up in its own module
namespace at call time.  ``patch_add_at`` points each of those names back at
a plain ``np.add.at`` on the 2-D table, so a fit under the patch is the
reference fit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.embeddings import fasttext, glove, matrix_completion, word2vec
from repro.kge import transe

#: Trainer module -> the key its reference calls are counted under.
TRAINER_MODULES = {
    matrix_completion: "mc",
    word2vec: "cbow",
    glove: "glove",
    fasttext: "fasttext",
    transe: "transe",
}


def patch_add_at(monkeypatch, calls: Counter) -> None:
    """Route every trainer module's ``scatter_add_rows`` to ``np.add.at``,
    counting calls under the module's key in ``TRAINER_MODULES``."""
    for module, key in TRAINER_MODULES.items():

        def reference(X, index, values, key=key):
            calls[key] += 1
            np.add.at(X, index, values)

        monkeypatch.setattr(module, "scatter_add_rows", reference)
