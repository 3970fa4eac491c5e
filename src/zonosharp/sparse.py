"""A matrix stored as its entries.

The RLT lift (`rlt.build_xd`) has a column for every subset of the
binaries and about 8 entries per row, so its Ac is nearly all zeros: at
n_b = 8, d = 4 it has 53288 entries in a 6435 x 7031 array (345 MiB
dense).  `SparseMatrix` keeps only the entries, and answers what the
package asks of an Ac from them.
"""

from __future__ import annotations

import numbers

import numpy as np


class SparseMatrix:
    """An m x n float64 matrix held as its entries: the value val[i] at
    (row[i], col[i]), no position twice, and +0.0 at every other position.

    The entry arrays are read-only, and so is the matrix.  `A @ Z` for a
    dense vector or matrix Z, `sum`, `any`, `nnz` and a real scalar times A
    are computed from the entries.  `np.asarray(A)` gives the dense form:
    it is built at the first call and kept, read-only, so every set that
    holds A (a lift's leaves, say) shares one dense A.  A pickle or a deep
    copy does not carry it.  `copy()` and `tolist()` build a fresh dense
    form and keep nothing.  A numpy ufunc raises TypeError instead of
    building the dense form unasked.
    """

    __array_ufunc__ = None
    ndim = 2
    dtype = np.dtype(np.float64)

    def __init__(self, shape, row, col, val):
        m, n = (int(k) for k in shape)
        row = np.asarray(row, dtype=np.intp)
        col = np.asarray(col, dtype=np.intp)
        val = np.asarray(val, dtype=np.float64)
        if not (val.ndim == 1 and row.shape == col.shape == val.shape):
            raise ValueError("row, col and val must be 1-D arrays of one length")
        if min(m, n) < 0 or (val.size and not (
                0 <= row.min() and row.max() < m and 0 <= col.min() and col.max() < n)):
            raise ValueError(f"an entry lies outside a {m} x {n} matrix")
        self.__setstate__({"shape": (m, n), "row": row, "col": col, "val": val})

    def __getstate__(self):
        return {"shape": self.shape, "row": self.row, "col": self.col,
                "val": self.val}

    def __setstate__(self, state):
        for a in (state["row"], state["col"], state["val"]):
            a.setflags(write=False)
        self.__dict__.update(state, _dense=None)

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nnz(self) -> int:
        """The nonzeros of the dense form: the entries whose value is not
        zero."""
        return int(np.count_nonzero(self.val))

    def copy(self) -> np.ndarray:
        """The dense form, as a new writable array."""
        out = np.zeros(self.shape)
        out[self.row, self.col] = self.val
        return out

    def tolist(self) -> list:
        return self.copy().tolist()

    def __array__(self, dtype=None, copy=None):
        """The kept, read-only dense form; a new array when copy is True or
        dtype is not float64."""
        if copy or (dtype is not None and np.dtype(dtype) != self.dtype):
            return self.copy().astype(dtype or self.dtype, copy=False)
        if self._dense is None:
            self._dense = self.copy()
            self._dense.setflags(write=False)
        return self._dense

    def __matmul__(self, Z):
        """The product with a dense vector or matrix Z, one bincount over
        the entries: a row's sum runs in entry order."""
        if isinstance(Z, SparseMatrix):
            return NotImplemented
        Z = np.asarray(Z, dtype=np.float64)
        m, n = self.shape
        if not 1 <= Z.ndim <= 2 or Z.shape[0] != n:
            raise ValueError(f"cannot multiply a {m} x {n} matrix by shape {Z.shape}")
        if Z.ndim == 1:
            return np.bincount(self.row, self.val * Z[self.col], minlength=m)
        k = Z.shape[1]
        at = (self.row[:, None] * k + np.arange(k)).ravel()
        terms = (self.val[:, None] * Z[self.col]).ravel()
        return np.bincount(at, terms, minlength=m * k).reshape(m, k)

    def sum(self, axis):
        """The sums of the columns (axis 0) or of the rows (axis 1)."""
        return np.bincount(self._along(axis), self.val,
                           minlength=self.shape[1 - axis])

    def any(self, axis):
        """Whether each column (axis 0) or row (axis 1) has a nonzero."""
        out = np.zeros(self.shape[1 - axis], dtype=bool)
        out[self._along(axis)[self.val != 0.0]] = True
        return out

    def _along(self, axis):
        """Each entry's index along what a reduction over axis keeps."""
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, not {axis!r}")
        return self.col if axis == 0 else self.row

    def __mul__(self, s):
        """A real finite scalar times the matrix, entry by entry.  Where no
        entry is, the product is +0.0, also for a negative s; the dense
        product has -0.0 there, which is the same number."""
        if not isinstance(s, numbers.Real) or isinstance(s, bool):
            return NotImplemented
        if not np.isfinite(s):
            raise ValueError("a sparse matrix is scaled by finite numbers only")
        return SparseMatrix(self.shape, self.row, self.col, s * self.val)

    __rmul__ = __mul__
