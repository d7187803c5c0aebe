import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from infosum.sparse import CsrMatrix, SelectedRows

RTOL = 1e-12


def csr(A) -> CsrMatrix:
    """The nonzero entries of a 2-d array, row by row."""
    A = np.asarray(A, dtype=float)
    return CsrMatrix.from_rows([(np.flatnonzero(a), a[a != 0]) for a in A], A.shape[1])


# Half of the drawn entries are zero, so all-zero rows and columns are common.
# Subnormal floats are not drawn: a product of one loses relative precision
# in any summation order.
ENTRIES = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, allow_subnormal=False))


@st.composite
def dense_matrices(draw):
    n = draw(st.integers(0, 7))
    d = draw(st.integers(0, 7))
    return draw(arrays(float, (n, d), elements=ENTRIES))


def vectors(n):
    return arrays(float, n, elements=st.floats(-10.0, 10.0, allow_subnormal=False))


@st.composite
def cases(draw):
    """A dense matrix A, w for A @ w, r for A.T @ r, an index array with its
    own r, and a boolean mask."""
    A = draw(dense_matrices())
    n, d = A.shape
    idx = np.array(draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else [], dtype=np.intp)
    return A, draw(vectors(d)), draw(vectors(n)), idx, draw(vectors(len(idx))), draw(arrays(bool, n))


def assert_product(got, A, v):
    """got equals A @ v within RTOL of the sum of absolute products."""
    want = A @ v
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * (np.abs(A) @ np.abs(v)))


def check_products(X, A, w, r):
    assert len(X) == A.shape[0] and X.shape == A.shape
    assert_product(X @ w, A, w)
    assert_product(X.T @ r, A.T, r)


ZEROS = np.zeros((3, 4))
ZERO_ROW_AND_COLUMN = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, -1.5]])


@given(cases())
@example(
    (np.zeros((0, 3)), np.ones(3), np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0),
     np.zeros(0, dtype=bool))
)
@example(
    (ZEROS, np.ones(4), np.ones(3), np.array([2, 2, 0]), np.ones(3), np.array([True, False, True]))
)
@example(
    (ZERO_ROW_AND_COLUMN, np.array([1.0, 5.0, -2.0]), np.array([1.0, 7.0, 0.5]),
     np.array([1, 1, 2, 0]), np.array([1.0, -2.0, 3.0, 0.25]), np.array([False, True, True]))
)
def test_csr_products_and_selected_rows_match_dense(case):
    A, w, r, idx, r_idx, mask = case
    X = csr(A)
    check_products(X, A, w, r)
    check_products(SelectedRows(X, idx), A[idx], w, r_idx)
    check_products(SelectedRows(A, idx), A[idx], w, r_idx)
    check_products(SelectedRows(X, np.flatnonzero(mask)), A[mask], w, r[mask])


@given(dense_matrices())
def test_arrays_hold_the_nonzero_entries_row_by_row(A):
    X = csr(A)
    r, c = np.nonzero(A)
    assert np.array_equal(X.indptr, np.searchsorted(r, np.arange(len(A) + 1)))
    assert np.array_equal(X.indices, c) and np.array_equal(X.data, A[r, c])


def test_empty_rows_and_columns_sum_to_zero_not_the_next_entry():
    X = csr([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    assert np.array_equal(X @ np.array([1.0, 10.0, 100.0]), [0.0, 20.0, 0.0, 4.0])
    assert np.array_equal(X.T @ np.array([1.0, 2.0, 3.0, 5.0]), [20.0, 4.0, 0.0])


def test_transpose_is_built_once():
    X = csr(ZERO_ROW_AND_COLUMN)
    assert X.T is X.T and X.T.T is X


@pytest.mark.parametrize(
    "indptr, indices, data, n_cols",
    [
        ([1, 2], [0], [1.0], 3),  # does not start at 0
        ([0, 2, 1], [0], [1.0], 3),  # falls
        ([0, 1], [0, 1], [1.0, 2.0], 3),  # ends before the last entry
        ([0, 1], [3], [1.0], 3),  # column out of range
        ([0, 1], [-1], [1.0], 3),
        ([0, 2], [0, 1], [1.0], 3),  # indices and data differ in length
    ],
)
def test_rejects_inconsistent_arrays(indptr, indices, data, n_cols):
    with pytest.raises(ValueError):
        CsrMatrix(indptr, indices, data, n_cols)

