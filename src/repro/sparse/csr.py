"""Compressed Row Storage (CRS/CSR) sparse matrix.

This is the format the paper builds on (Sect. 1.2): all nonzeros in one
contiguous array ``val`` ordered row by row, row start offsets in
``row_ptr`` and original column indices in ``col_idx``.  The class owns
its three arrays outright; nothing here wraps :mod:`scipy.sparse`
(scipy is used only in the *tests* as an independent reference).

Traffic accounting
------------------
Besides the numerics, the class knows how much *memory traffic* one
matrix-vector multiplication generates, which is what the paper's
code-balance model (Eq. 1) is about:

* ``val``      — 8 bytes per nonzero (read once),
* ``col_idx``  — 4 bytes per nonzero (the paper assumes 32-bit indices),
* ``C``        — 16 bytes per row (write-allocate + evict),
* ``B``        — at least 8 bytes per row, more when cache misses force
  reloads (the ``kappa`` parameter).

See :mod:`repro.model.code_balance`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sparse import native
from repro.util import check_array_1d, check_sorted_nondecreasing, require

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import COOMatrix

__all__ = ["CSRMatrix"]

#: Bytes per matrix value (double precision), per the paper.
VAL_BYTES = 8
#: Bytes per column index (32-bit), per the paper.
IDX_BYTES = 4
#: Bytes of traffic per result-vector element (write allocate + evict).
RESULT_BYTES = 16
#: Bytes per RHS element load.
RHS_BYTES = 8


class CSRMatrix:
    """Sparse matrix in Compressed Row Storage format.

    Parameters
    ----------
    row_ptr:
        ``int64`` array of length ``nrows + 1``; monotone non-decreasing,
        ``row_ptr[0] == 0`` and ``row_ptr[-1] == nnz``.
    col_idx:
        ``int64`` array of length ``nnz`` with column indices.  Within each
        row indices must be strictly increasing (canonical form).
    val:
        ``float64`` array of length ``nnz``.
    ncols:
        Number of columns.  Defaults to ``nrows`` (square matrix).
    """

    __slots__ = ("row_ptr", "col_idx", "val", "ncols", "__weakref__")

    def __init__(
        self,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        val: np.ndarray,
        *,
        ncols: int | None = None,
        check: bool = True,
    ) -> None:
        self.row_ptr = check_array_1d(row_ptr, "row_ptr", dtype=np.int64)
        self.col_idx = check_array_1d(col_idx, "col_idx", dtype=np.int64)
        self.val = check_array_1d(val, "val", dtype=np.float64)
        if self.row_ptr.size == 0:
            raise ValueError("row_ptr must have length nrows + 1 >= 1")
        self.ncols = int(self.nrows if ncols is None else ncols)
        if check:
            self._validate()

    def _validate(self) -> None:
        require(self.row_ptr[0] == 0, "row_ptr[0] must be 0")
        check_sorted_nondecreasing(self.row_ptr, "row_ptr")
        require(
            self.row_ptr[-1] == self.col_idx.size,
            f"row_ptr[-1] ({self.row_ptr[-1]}) must equal nnz ({self.col_idx.size})",
        )
        require(
            self.col_idx.size == self.val.size,
            "col_idx and val must have the same length",
        )
        if self.col_idx.size:
            require(int(self.col_idx.min()) >= 0, "negative column index")
            require(
                int(self.col_idx.max()) < self.ncols,
                f"column index {int(self.col_idx.max())} out of range for ncols={self.ncols}",
            )
        # strictly increasing columns within each row (canonical CSR)
        if self.col_idx.size > 1:
            diffs = np.diff(self.col_idx)
            # row boundaries strictly inside the entry array (0 < p < nnz);
            # boundaries at 0 or nnz come from empty leading/trailing rows
            # and straddle no adjacent entry pair
            row_starts = self.row_ptr[1:-1]
            row_starts = row_starts[(row_starts > 0) & (row_starts < self.col_idx.size)]
            interior = np.ones(diffs.size, dtype=bool)
            interior[row_starts - 1] = False  # diffs that straddle a row boundary
            require(
                bool(np.all(diffs[interior] > 0)),
                "column indices must be strictly increasing within each row",
            )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        """Number of rows."""
        return int(self.row_ptr.size - 1)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.row_ptr[-1])

    @property
    def nnzr(self) -> float:
        """Average nonzeros per row, ``Nnzr = Nnz / Nr`` (paper Sect. 1.2)."""
        return self.nnz / max(1, self.nrows)

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts as an ``int64`` array."""
        return np.diff(self.row_ptr)

    def memory_bytes(self) -> int:
        """Bytes needed to store the matrix (val + col_idx + row_ptr), using
        the paper's 8-byte values and 4-byte column indices."""
        return VAL_BYTES * self.nnz + IDX_BYTES * self.nnz + 8 * self.row_ptr.size

    def structure_fingerprint(self) -> tuple[int, int, int, int, int]:
        """Cheap fingerprint of the sparsity *structure* (not the values).

        ``(nrows, ncols, nnz, crc32(row_ptr), crc32(col_idx))`` — what
        every structure-derived cache (halo plans, built models) keys on
        to detect in-place mutation of a matrix between requests.  The
        two checksums stream the index arrays once (~GB/s), orders of
        magnitude cheaper than rebuilding a plan.
        """
        import zlib

        return (
            self.nrows,
            self.ncols,
            self.nnz,
            zlib.crc32(np.ascontiguousarray(self.row_ptr).data),
            zlib.crc32(np.ascontiguousarray(self.col_idx).data),
        )

    def content_fingerprint(self) -> tuple:
        """Witness that none of the three arrays changed since it was taken.

        Caches holding *copies of the values* (the halo plan's local /
        remote sub-matrices) must also notice in-place value updates,
        which leave the structure fingerprint unchanged.  ``(nrows,
        ncols, nnz, the three dtypes, checksum)``: the checksum is one
        compiled pass over ``row_ptr``, ``col_idx`` and ``val``
        (:func:`repro.sparse.native.checksum`), or crc32 of each when the
        library is off.  Process-local — never store it; files carry
        :meth:`structure_fingerprint`.
        """
        return self._witness((self.row_ptr, self.col_idx, self.val))

    def index_fingerprint(self) -> tuple:
        """Witness that ``row_ptr`` and ``col_idx`` did not change.

        The same pass as :meth:`content_fingerprint` over the two index
        arrays only: what guards caches holding *structure alone* (a
        metadata-only halo plan), so an in-place value update keeps
        them.  Process-local, like :meth:`content_fingerprint`.
        """
        return self._witness((self.row_ptr, self.col_idx))

    def _witness(self, arrays: tuple[np.ndarray, ...]) -> tuple:
        """``(nrows, ncols, nnz, dtypes, checksum)`` of *arrays*: one
        compiled pass, or crc32 of each when the library is off."""
        import zlib

        digest = native.checksum(arrays)
        sums = (
            (digest,) if digest is not None
            else tuple(zlib.crc32(np.ascontiguousarray(a).data) for a in arrays)
        )
        return (self.nrows, self.ncols, self.nnz, *(a.dtype.str for a in arrays), *sums)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nnzr={self.nnzr:.2f})"
        )

    # ------------------------------------------------------------------
    # constructors / conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, keeping entries with ``|a_ij| > tol``."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix.from_dense(dense, tol=tol).to_csr()

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The ``n`` x ``n`` identity matrix."""
        return cls(
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n),
            ncols=n,
        )

    def to_coo(self) -> "COOMatrix":
        """Convert to COO format."""
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return COOMatrix(self.nrows, self.ncols, rows, self.col_idx.copy(), self.val.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as dense float64 (test-scale only)."""
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        out[rows, self.col_idx] = self.val
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (testing aid)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.val.copy(), self.col_idx.copy(), self.row_ptr.copy()), shape=self.shape
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.row_ptr.copy(), self.col_idx.copy(), self.val.copy(), ncols=self.ncols, check=False
        )

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix-vector product ``y = A @ x`` (the paper's kernel):
        :func:`repro.sparse.spmv.spmv`, the segmented row sum."""
        from repro.sparse.spmv import spmv

        return spmv(self, x, out=out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal as a dense vector (zeros where absent)."""
        n = min(self.nrows, self.ncols)
        diag = np.zeros(n)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        mask = (rows == self.col_idx) & (rows < n)
        diag[rows[mask]] = self.val[mask]
        return diag

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix."""
        return self.to_coo().transpose().to_csr()

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Structural+numerical symmetry test (square matrices only)."""
        if self.nrows != self.ncols:
            return False
        t = self.transpose()
        if not np.array_equal(t.row_ptr, self.row_ptr):
            return False
        if not np.array_equal(t.col_idx, self.col_idx):
            return False
        return bool(np.all(np.abs(t.val - self.val) <= tol))

    def scale(self, alpha: float) -> "CSRMatrix":
        """Return ``alpha * A``."""
        out = self.copy()
        out.val *= float(alpha)
        return out

    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Return ``A + B`` for matrices with identical shape."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        from repro.sparse.coo import COOMatrix

        a = self.to_coo()
        b = other.to_coo()
        return COOMatrix(
            self.nrows,
            self.ncols,
            np.concatenate([a.row, b.row]),
            np.concatenate([a.col, b.col]),
            np.concatenate([a.val, b.val]),
        ).to_csr()

    # ------------------------------------------------------------------
    # structure manipulation
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric permutation ``P A P^T`` where ``perm[new] = old``.

        Used by the (R)CM reordering: row ``perm[i]`` of ``A`` becomes row
        ``i``, and column indices are relabelled accordingly.
        """
        perm = check_array_1d(perm, "perm", dtype=np.int64)
        if perm.size != self.nrows or self.nrows != self.ncols:
            raise ValueError("permute requires a square matrix and a full-length permutation")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size, dtype=np.int64)
        counts = self.row_nnz()[perm]
        row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        if self.nnz == 0:
            return CSRMatrix(row_ptr, self.col_idx.copy(), self.val.copy(), ncols=self.ncols, check=False)
        # Gather all source entries in one vectorised pass: entry t of the
        # output comes from position (start of its source row) + (offset of
        # t within its destination row).
        dest_rows = np.repeat(np.arange(self.nrows, dtype=np.int64), counts)
        within = np.arange(self.nnz, dtype=np.int64) - np.repeat(row_ptr[:-1], counts)
        gather = self.row_ptr[perm][dest_rows] + within
        col_idx = inv[self.col_idx[gather]]
        val = self.val[gather]
        order = np.lexsort((col_idx, dest_rows))
        return CSRMatrix(row_ptr, col_idx[order], val[order], ncols=self.ncols, check=False)
