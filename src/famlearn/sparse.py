"""Row-compressed nonnegative matrices: mechanism rules and chain kernels.

A bounded-memory rule touches a handful of successors per (state, signal)
pair, and so does the chain it induces.  :class:`SparseRows` stores only
those entries, so a star with 100,001 memory states costs megabytes where
its dense ``(m, k, m)`` tensor would cost terabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SparseRows:
    """A ``len(self) x width`` matrix holding only its nonzero entries.

    Row ``r`` holds ``value[indptr[r]:indptr[r + 1]]`` in the columns
    ``index[indptr[r]:indptr[r + 1]]``, in increasing column order, with
    no duplicates and no stored zeros.
    """

    indptr: np.ndarray
    index: np.ndarray
    value: np.ndarray
    width: int

    @classmethod
    def from_entries(cls, row, col, value, height: int, width: int) -> "SparseRows":
        """Sum the entries falling on one cell, in the order given, and drop zeros.

        Summing in the given order makes the result bitwise what ``+=`` into
        a dense zero matrix would hold, entry by entry.
        """
        key = np.asarray(row, dtype=np.int64) * width + np.asarray(col, dtype=np.int64)
        cells, which = np.unique(key, return_inverse=True)
        # bincount adds each cell's entries in the order given.
        total = np.bincount(which, weights=value, minlength=cells.size)
        keep = total != 0.0
        rows, cols = np.divmod(cells[keep], width)
        return cls.from_sorted(rows, cols, total[keep], height, width)

    @classmethod
    def from_sorted(cls, row, col, value, height: int, width: int) -> "SparseRows":
        """From distinct nonzero entries already sorted by row, then column."""
        indptr = np.zeros(height + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=height), out=indptr[1:])
        return cls(indptr, col, value, width)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseRows":
        rows, cols = np.nonzero(a)
        return cls.from_sorted(rows, cols, a[rows, cols], *a.shape)

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.index.size

    @cached_property
    def row_index(self) -> np.ndarray:
        """Row of each stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.row_index, weights=self.value, minlength=len(self))

    # Makes numpy defer ``x @ self`` to ``__rmatmul__``.
    __array_ufunc__ = None

    def entries(self, rows):
        """The stored entries of ``rows``, which are distinct and increasing.

        Returns ``(entry, place)``: each entry's position in ``index`` and
        ``value``, in storage order, and its row's position in ``rows``.
        Only those rows' entries are touched, so a few rows of a large
        matrix cost little.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == len(self):  # every row
            return np.arange(self.nnz), self.row_index
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        place = np.repeat(np.arange(rows.size), count)
        first = np.cumsum(count) - count  # each row's first slot in the output
        return start[place] + (np.arange(place.size) - first[place]), place

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        """``x @ self`` for a vector ``x``, reading only the rows where ``x`` is nonzero."""
        rows = np.flatnonzero(x)
        entry, place = self.entries(rows)
        return np.bincount(
            self.index[entry], weights=x[rows[place]] * self.value[entry], minlength=self.width
        )

    def block(self, rows, cols) -> np.ndarray:
        """Dense ``self[np.ix_(rows, cols)]`` for distinct ``rows``, reading only their entries."""
        order = np.argsort(rows)
        entry, place = self.entries(np.asarray(rows)[order])
        col_pos = np.full(self.width, -1)
        col_pos[cols] = np.arange(len(cols))
        c = col_pos[self.index[entry]]
        keep = c >= 0
        out = np.zeros((len(rows), len(cols)))
        out[order[place[keep]], c[keep]] = self.value[entry[keep]]
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((len(self), self.width))
        out[self.row_index, self.index] = self.value
        return out
