"""Compressed sparse row (CSR) matrices in numpy alone.

Sentence feature rows are mostly zero (1.7-4.3 % nonzero on the benchmark
bundles), so train holds its feature matrices as a CsrMatrix.
The type supports what training does with X and nothing more: `len`, `.shape`,
`X[rows]`, `X @ w` and `X.T @ r`; dense numpy arrays support the same
operations, so the training code accepts either. scipy.sparse is not used:
on a 2-vCPU VM, importing it after numpy raised peak resident memory from
27 to 49 MB and added about 0.3 s, which every CLI process would pay.

`X @ w` multiplies each stored value by its column's weight and sums each
row's products with one `np.add.reduceat`. `X.T @ r` is the same product on
the transposed matrix, a column-sorted copy built on first use and kept. A
row's sum depends only on that row's stored entries in stored order, and
`model.Linear.margin` computes it in pure Python with reduceat's bits.
reduceat returns the next element, not 0, for an empty segment, so the sums
are taken over the non-empty rows only and scattered into zeros.

`X[rows]` copies the given rows into a new matrix.
"""

from __future__ import annotations

from array import array

import numpy as np


class CsrMatrix:
    """An n x d matrix as row pointers, column indices and values.

    Row i holds the entries `indptr[i]:indptr[i + 1]` of `indices` (its
    columns) and `data` (its values).
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
            out[self._filled_rows] = np.add.reduceat(self.data * w[self.indices], self._starts)
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

