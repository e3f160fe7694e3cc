"""CBOW's sparse-product fit equals its sequential loop up to rounding.

Each fit runs twice from the same seed: as shipped, and with
``tests/embeddings/reference.py``'s ``sequential_cbow_train`` patched in,
which draws the same random numbers and applies each example's row updates
one at a time.  A word repeated in a batch gets its summed update in one
addition in the shipped fit, so the two differ by rounding only.
"""

from collections import Counter

import numpy as np
import pytest

from repro.embeddings.word2vec import CBOWModel
from tests.embeddings.reference import patch_sequential_cbow

#: Largest difference allowed, relative to the reference's largest entry.
#: Rounding reads ~2e-15 on this corpus and ~7e-14 at 8 epochs on the
#: benchmark grid's corpus.
RELATIVE_TOLERANCE = 1e-12


@pytest.mark.parametrize("dim", [8, 13])
def test_cbow_fit_equals_sequential_reference_up_to_rounding(dim, corpus, vocab, monkeypatch):
    def fit():
        return CBOWModel(dim=dim, epochs=2, seed=1).fit(corpus, vocab=vocab).vectors

    shipped = fit()
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch_sequential_cbow(patch, calls)
        reference = fit()
    assert calls["cbow"] == 1
    assert np.abs(shipped - reference).max() <= RELATIVE_TOLERANCE * np.abs(reference).max()
