"""Compressed sparse row (CSR) matrices in numpy alone.

Sentence feature rows are mostly zero (1.7-4.3 % nonzero on the benchmark
bundles), so train and predict hold their feature matrices as a CsrMatrix.
The type supports what training does with X and nothing more: `len`, `.shape`,
`X[rows]`, `X @ w` and `X.T @ r`; dense numpy arrays support the same
operations, so the training code accepts either. scipy.sparse is not used:
on a 2-vCPU VM, importing it after numpy raised peak resident memory from
27 to 49 MB and added about 0.3 s, which every CLI process would pay.

Feature values are counts or count fractions, so few distinct (column,
value) pairs make up the stored entries: at seed 0 the paper-150 training
matrix stores 28,587 entries in 2,853 pairs, and the bow-align-hivocab one
7,213 in 662. A CsrMatrix finds those pairs once, at construction, telling
values apart by their bits (0.0 and -0.0 are two values). `X @ w`
multiplies each pair's value by its column's weight, gathers every entry's
product from that table and sums each row's products with one
`np.add.reduceat`. Each entry gets the product that `value * w[column]`
would give it, in the same order, so the sums keep their bits. `X.T @ r` is
the same product on the transposed matrix, a column-sorted copy with its
own table, built on first use and kept. A row's sum depends only on that
row's stored entries in stored order. reduceat returns the next element,
not 0, for an empty segment, so the sums are taken over the non-empty rows
only and scattered into zeros.

`X[rows]` copies the given rows into a new matrix.
"""

from __future__ import annotations

from array import array

import numpy as np


class CsrMatrix:
    """An n x d matrix as row pointers, column indices and values.

    Row i holds the entries `indptr[i]:indptr[i + 1]` of `indices` (its
    columns) and `data` (its values). Entry k's (column, value) pair is
    `(_pair_cols[p], _pair_vals[p])` with `p = _pair_of[k]`.
    """

    def __init__(self, indptr, indices, data, n_cols: int):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        n_entries = len(self.data)
        if (
            self.indptr.ndim != 1
            or len(self.indptr) == 0
            or self.indptr[0] != 0
            or self.indptr[-1] != n_entries
            or np.any(np.diff(self.indptr) < 0)
        ):
            raise ValueError("indptr must rise from 0 to the number of stored entries")
        if self.indices.shape != self.data.shape or self.data.ndim != 1:
            raise ValueError("indices and data must be 1-d and of equal length")
        if n_cols < 0 or (n_entries and not 0 <= self.indices.min() <= self.indices.max() < n_cols):
            raise ValueError(f"column indices must lie in [0, {n_cols})")
        self.shape = (len(self.indptr) - 1, int(n_cols))
        filled = np.diff(self.indptr) > 0
        self._filled_rows = np.flatnonzero(filled)
        self._starts = self.indptr[:-1][filled]
        value_bits, value_of = np.unique(self.data.view(np.int64), return_inverse=True)
        n_values = len(value_bits)
        pairs, self._pair_of = np.unique(self.indices * n_values + value_of, return_inverse=True)
        self._pair_cols, pair_value = np.divmod(pairs, n_values)  # empty when n_values is 0
        self._pair_vals = value_bits[pair_value].view(float)
        self._transpose: CsrMatrix | None = None

    @classmethod
    def from_rows(cls, rows, n_cols: int) -> CsrMatrix:
        """Matrix whose rows are the given (columns, values) pairs, read once into
        flat typed buffers, so `rows` may be a generator and no row is kept."""
        indptr, indices, data = array("q", [0]), array("q"), array("d")
        for cols, vals in rows:
            indices.extend(cols)
            data.extend(vals)
            indptr.append(len(indices))
        return cls(indptr, indices, data, n_cols)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows) -> CsrMatrix:
        """A new matrix holding rows `rows` of this one, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(self.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
        return CsrMatrix(indptr, self.indices[take], self.data[take], self.shape[1])

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Row sums of value * w[column], a vector of length n."""
        out = np.zeros(self.shape[0])
        if len(self._starts):
            products = self._pair_vals * w[self._pair_cols]
            out[self._filled_rows] = np.add.reduceat(products[self._pair_of], self._starts)
        return out

    @property
    def T(self) -> CsrMatrix:
        """The d x n transpose: entries sorted by column, stably, built once."""
        if self._transpose is None:
            order = np.argsort(self.indices, kind="stable")
            indptr = np.zeros(self.shape[1] + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
            self._transpose = CsrMatrix(indptr, rows[order], self.data[order], self.shape[0])
            self._transpose._transpose = self
        return self._transpose

