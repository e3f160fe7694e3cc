"""Tests for co-occurrence counting and the PPMI transform."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.cooccurrence import build_cooccurrence, ppmi_matrix


class TestBuildCooccurrence:
    def test_simple_pair_counts(self):
        # "0 1 0": with window 1 every pair is at distance 1 and weighs 1, so
        # (0,1) appears twice in each direction.
        mat = build_cooccurrence([[0, 1, 0]], 2, window_size=1)
        dense = mat.toarray()
        assert dense[0, 1] == 2
        assert dense[1, 0] == 2
        assert dense[0, 0] == 0

    def test_symmetry(self):
        docs = [np.array([0, 1, 2, 1, 0])]
        mat = build_cooccurrence(docs, 3, window_size=2).toarray()
        np.testing.assert_allclose(mat, mat.T)

    def test_distance_weighting_halves_far_pairs(self):
        mat = build_cooccurrence([[0, 2, 1]], 3, window_size=2)
        dense = mat.toarray()
        assert dense[0, 1] == pytest.approx(0.5)
        assert dense[0, 2] == pytest.approx(1.0)

    def test_out_of_range_ids_are_skipped(self):
        # A skipped id drops out before windowing, as out-of-vocabulary words
        # do in ``Corpus.encode_documents``: 0 and 1 become neighbours at
        # distance 1.
        for skipped in (99, -1):
            mat = build_cooccurrence([[0, skipped, 1]], 2, window_size=1)
            np.testing.assert_array_equal(mat.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_empty_documents(self):
        mat = build_cooccurrence([[], [5]], 6, window_size=2)
        assert mat.nnz == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_cooccurrence([[0, 1]], 0)
        with pytest.raises(ValueError):
            build_cooccurrence([[0, 1]], 2, window_size=0)

    def test_window_larger_than_document(self):
        mat = build_cooccurrence([[0, 1]], 2, window_size=10)
        assert mat[0, 1] == 1


class TestPPMI:
    def test_nonnegative(self):
        counts = build_cooccurrence([[0, 1, 2, 0, 1]], 3, window_size=2)
        ppmi = ppmi_matrix(counts)
        assert (ppmi.data >= 0).all()

    def test_zero_entries_stay_zero(self):
        counts = sp.csr_matrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
        ppmi = ppmi_matrix(counts).toarray()
        assert ppmi[0, 0] == 0 and ppmi[1, 1] == 0

    def test_independent_words_have_zero_pmi(self):
        # Uniform co-occurrence: P(i,j) = P(i)P(j) exactly, so PMI = 0.
        counts = np.ones((3, 3))
        ppmi = ppmi_matrix(counts)
        assert ppmi.nnz == 0

    def test_shift_reduces_entries(self):
        counts = build_cooccurrence([[0, 1, 0, 1, 2]], 3, window_size=1)
        base = ppmi_matrix(counts).sum()
        shifted = ppmi_matrix(counts, shift=1.0).sum()
        assert shifted <= base

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            ppmi_matrix(np.array([[-1.0, 1.0], [1.0, 0.0]]))

    def test_all_zero_matrix(self):
        ppmi = ppmi_matrix(sp.csr_matrix((4, 4)))
        assert ppmi.nnz == 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=30),
        min_size=1,
        max_size=5,
    )
)
def test_property_cooccurrence_symmetric_and_ppmi_nonnegative(docs):
    counts = build_cooccurrence(docs, 10, window_size=3)
    dense = counts.toarray()
    np.testing.assert_allclose(dense, dense.T)
    assert (dense >= 0).all()
    ppmi = ppmi_matrix(counts)
    assert (ppmi.data >= 0).all()
    # PPMI keeps only entries that were observed.
    assert set(zip(*ppmi.nonzero())) <= set(zip(*counts.nonzero()))
