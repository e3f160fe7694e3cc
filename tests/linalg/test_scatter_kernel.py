"""``scatter_add_rows`` against ``np.add.at`` on the 2-D table, bit for bit.

Indices are Zipf-drawn, so a few rows repeat hundreds of times within one
call, and the values span sixteen orders of magnitude: summing any row's
updates in a different order, or pre-summing them per row, changes the last
bits and fails ``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import scatter_add_rows


def _draw(seed, n_rows, n, d, *, zipf_a=1.3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, d)).astype(dtype)
    index = (rng.zipf(zipf_a, n) - 1) % n_rows
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    return X, index, values.astype(dtype)


def _reference(X, index, values):
    expected = X.copy()
    np.add.at(expected, index, values)
    return expected


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 70),
    n=st.integers(0, 2000),
    n_rows=st.integers(1, 300),
    zipf_a=st.floats(1.05, 3.0),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_bitwise_equal_to_add_at(d, n, n_rows, zipf_a, dtype, seed):
    X, index, values = _draw(seed, n_rows, n, d, zipf_a=zipf_a, dtype=dtype)
    expected = _reference(X, index, values)
    scatter_add_rows(X, index, values)
    assert np.array_equal(X, expected)


def test_reordered_sums_would_show():
    """Pre-summing each row's updates (a reordering) differs from ``add.at``,
    so the data above can tell the kernel from a reordered one."""
    X, index, values = _draw(0, 50, 2000, 16)
    presummed = X.copy()
    for row in np.unique(index):
        presummed[row] += values[index == row].sum(axis=0)
    assert not np.array_equal(presummed, _reference(X, index, values))


def test_negative_ids_and_row_slices_match_add_at():
    X, index, values = _draw(1, 40, 500, 5)
    index = index - 40                             # every id negative
    expected = _reference(X, index, values)
    scatter_add_rows(X, index, values)
    assert np.array_equal(X, expected)

    # A block of whole rows is a C-contiguous view: updated in place.
    table = np.zeros((10, 4))
    expected = table.copy()
    np.add.at(expected[2:7], [0, 4, 0], np.ones((3, 4)))
    scatter_add_rows(table[2:7], np.array([0, 4, 0]), np.ones((3, 4)))
    assert np.array_equal(table, expected)


def test_out_of_range_id_raises_and_leaves_x_unchanged():
    X, index, values = _draw(2, 8, 20, 3)
    before = X.copy()
    index[5] = 8
    with pytest.raises(IndexError):
        scatter_add_rows(X, index, values)
    assert np.array_equal(X, before)


@pytest.mark.parametrize(
    "make_view",
    [
        pytest.param(np.asfortranarray, id="fortran-order"),
        pytest.param(lambda X: X[:, :3], id="column-slice"),
        pytest.param(lambda X: X[::2], id="strided-rows"),
        pytest.param(lambda X: X[0], id="one-dimensional"),
    ],
)
def test_table_that_is_not_c_contiguous_2d_raises_and_is_untouched(make_view):
    base = np.random.default_rng(3).standard_normal((6, 5))
    X = make_view(base)
    before, base_before = X.copy(), base.copy()
    d = X.shape[-1]
    with pytest.raises(ValueError):
        scatter_add_rows(X, np.array([0, 1, 1]), np.ones((3, d)))
    assert np.array_equal(X, before)
    assert np.array_equal(base, base_before)


@pytest.mark.parametrize(
    "index,values",
    [
        pytest.param(np.array([0, 1, 2]), np.ones((4, 3)), id="transposed"),
        pytest.param(np.array([0, 1, 2, 2]), np.ones((3, 4)), id="too-few-rows"),
        pytest.param(np.array([0, 1, 2]), np.ones(12), id="flat-values"),
        pytest.param(np.array([0, 1, 2]), np.ones((3, 2)), id="narrow-values"),
        pytest.param(np.array([[0, 1], [2, 3]]), np.ones((2, 4)), id="two-dimensional-index"),
        pytest.param(np.array([0.0, 1.0, 2.0]), np.ones((3, 4)), id="float-index"),
    ],
)
def test_mismatched_arguments_raise_and_leave_x_unchanged(index, values):
    X = np.zeros((5, 4))
    with pytest.raises(ValueError):
        scatter_add_rows(X, index, values)
    assert not X.any()
