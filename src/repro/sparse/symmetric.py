"""Symmetric CRS storage and kernel (the paper's foregone optimization).

Sect. 1.3.1: "For real-valued, symmetric matrices as considered here it
is sufficient to store the upper triangular matrix elements and perform
a parallel symmetric CRS sparse MVM.  The data transfer volume is then
reduced by almost a factor of two, allowing for a corresponding
performance improvement."  The paper deliberately does *not* use it —
partly because "an efficient shared memory implementation of a
symmetric CRS sparse MVM base routine has not yet been presented".

This module implements the optimization as an extension so its cost
model can be studied:

* :class:`SymmetricCSR` stores the upper triangle (incl. diagonal),
* :func:`spmv_symmetric` applies both ``A x`` contributions of every
  stored entry (the scatter to ``C[j]`` is what makes shared-memory
  parallelisation hard — threads would race on ``C``),
* :func:`symmetric_code_balance` extends Eq. 1: per stored nonzero the
  kernel still moves 12 + κ bytes but performs ~4 flops, roughly
  halving the balance exactly as the paper predicts.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util import check_positive_float

__all__ = ["SymmetricCSR", "spmv_symmetric", "symmetric_code_balance"]


class SymmetricCSR:
    """Upper-triangular CRS storage of a symmetric matrix.

    Built from a full symmetric :class:`CSRMatrix`; keeps entries with
    ``col >= row`` only, cutting matrix memory (and stream traffic)
    nearly in half for matrices with small diagonals.
    """

    __slots__ = ("upper", "n")

    def __init__(self, upper: CSRMatrix, n: int) -> None:
        self.upper = upper
        self.n = n

    @classmethod
    def from_csr(cls, A: CSRMatrix, *, check: bool = True, tol: float = 1e-12) -> "SymmetricCSR":
        """Extract the upper triangle of a symmetric matrix.

        With ``check=True`` (default) the input's symmetry is verified —
        silently symmetrising an asymmetric matrix would corrupt results.
        """
        if A.nrows != A.ncols:
            raise ValueError("symmetric storage requires a square matrix")
        if check and not A.is_symmetric(tol=tol):
            raise ValueError("matrix is not symmetric (within tolerance)")
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_nnz())
        keep = A.col_idx >= rows
        kept_rows = rows[keep]
        row_ptr = np.zeros(A.nrows + 1, dtype=np.int64)
        np.add.at(row_ptr, kept_rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        upper = CSRMatrix(
            row_ptr, A.col_idx[keep].copy(), A.val[keep].copy(), ncols=A.ncols, check=False
        )
        return cls(upper, A.nrows)

    def memory_bytes(self) -> int:
        """Bytes of matrix storage (roughly half the full CSR)."""
        return self.upper.memory_bytes()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` via the symmetric kernel."""
        return spmv_symmetric(self, x)


def spmv_symmetric(A: SymmetricCSR, x: np.ndarray) -> np.ndarray:
    """Symmetric spMVM: each stored entry contributes to two result rows.

    ``C[i] += a_ij x[j]`` (the gather, as in plain CRS) plus
    ``C[j] += a_ij x[i]`` for off-diagonal entries (the scatter).  The
    scatter is implemented with ``np.add.at``; in a threaded C kernel
    this is precisely the write conflict the paper says had no efficient
    shared-memory solution at the time.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError(f"x must have shape ({A.n},), got {x.shape}")
    up = A.upper
    y = up.matvec(x)  # gather part: upper triangle including diagonal
    rows = np.repeat(np.arange(up.nrows, dtype=np.int64), up.row_nnz())
    off = up.col_idx > rows
    # scatter part: transpose contributions of strictly-upper entries
    np.add.at(y, up.col_idx[off], up.val[off] * x[rows[off]])
    return y


def symmetric_code_balance(nnzr_full: float, kappa: float = 0.0) -> float:
    """Bytes/flop of the symmetric kernel (extension of Eq. 1).

    Per *stored* nonzero (≈ half the full count) the kernel streams
    ``12 + κ`` bytes but performs ≈ 4 flops (two MACs), and the result
    vector is both read and written per sweep (the scatter updates make
    ``C`` a load+store stream: 24 bytes/row instead of 16).  For
    ``Nnzr = 15``::

        B_sym ≈ 3 + 18/Nnzr + κ/4  ≈ 4.2  bytes/flop   (vs 6.8 full)

    — the "almost a factor of two" of Sect. 1.3.1.
    """
    nnzr_full = check_positive_float(nnzr_full, "nnzr_full")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    # per row: Nnzr/2 stored entries x (12 + kappa) bytes, C read+write+
    # write-allocate (24 B), B loaded once (8 B); flops unchanged: 2*Nnzr
    bytes_per_row = (nnzr_full / 2.0) * (12.0 + kappa) + 24.0 + 8.0
    return bytes_per_row / (2.0 * nnzr_full)
