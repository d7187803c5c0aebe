import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from infosum.sparse import CsrMatrix

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
    check_products(X[idx], A[idx], w, r_idx)
    check_products(X[np.flatnonzero(mask)], A[mask], w, r[mask])


@given(dense_matrices())
def test_arrays_hold_the_nonzero_entries_row_by_row(A):
    X = csr(A)
    r, c = np.nonzero(A)
    assert np.array_equal(X.indptr, np.searchsorted(r, np.arange(len(A) + 1)))
    assert np.array_equal(X.indices, c) and np.array_equal(X.data, A[r, c])


def per_entry_product(X, v):
    """`X @ v` in the form that multiplies every stored entry: reduceat over the non-empty rows."""
    out = np.zeros(len(X))
    filled = np.diff(X.indptr) > 0
    if filled.any():
        out[filled] = np.add.reduceat(X.data * v[X.indices], X.indptr[:-1][filled])
    return out


# Few distinct values, 0.0 beside -0.0, so values repeat within a column; and
# other doubles, subnormals included, since the bits must match exactly. The
# bound keeps every product and sum finite.
STORED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]), st.floats(-1e100, 1e100))


@st.composite
def stored_matrices(draw):
    """A CsrMatrix with stored entries drawn directly: zeros and repeated columns
    within a row are kept, and rows and columns may be empty."""
    n = draw(st.integers(0, 7))
    d = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.tuples(st.integers(0, d - 1), STORED), max_size=8)) for _ in range(n)]
    X = CsrMatrix.from_rows(
        [(np.array([c for c, _ in row], dtype=np.intp), np.array([v for _, v in row])) for row in rows], d
    )
    return X, draw(arrays(float, d, elements=STORED)), draw(arrays(float, n, elements=STORED))


@given(stored_matrices())
@example(  # row 2 and column 0 sum to -0.0, and to 0.0 if a product took -0.0 for 0.0
    (CsrMatrix([0, 2, 2, 3, 5], [0, 1, 0, 2, 2], [0.0, -0.0, -0.0, 2.0, 2.0], 4),
     np.array([-1.0, 2.0, 0.0, 5.0]), np.array([-0.0, 3.0, 1.0, 0.0]))
)
def test_products_have_the_bits_of_the_per_entry_form(case):
    X, w, r = case
    assert np.array_equal((X @ w).view(np.int64), per_entry_product(X, w).view(np.int64))
    assert np.array_equal((X.T @ r).view(np.int64), per_entry_product(X.T, r).view(np.int64))


@given(dense_matrices(), st.data())
def test_row_selection_is_the_dense_row_subset(A, data):
    rows = np.array(data.draw(st.permutations(range(len(A)))), dtype=np.intp)[: data.draw(st.integers(0, len(A)))]
    X = csr(A)[rows]
    want = csr(A[rows])
    assert X.shape == want.shape == A[rows].shape
    assert np.array_equal(X.indptr, want.indptr) and np.array_equal(X.indices, want.indices)
    assert np.array_equal(X.data, want.data)


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

