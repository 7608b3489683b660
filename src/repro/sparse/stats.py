"""Structural statistics of sparse matrices.

These quantities drive both the node-level model (``Nnzr`` enters the
code balance) and the cluster-level communication model (the bandwidth
controls how much halo data a row-block partition exchanges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["MatrixStats", "matrix_stats", "bandwidth"]


def bandwidth(A: CSRMatrix) -> int:
    """Matrix (half-)bandwidth: ``max |i - j|`` over nonzeros."""
    if A.nnz == 0:
        return 0
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_nnz())
    return int(np.abs(rows - A.col_idx).max())


@dataclass(frozen=True)
class MatrixStats:
    """Summary structure statistics of a sparse matrix."""

    nrows: int
    ncols: int
    nnz: int
    nnzr: float
    bandwidth: int
    min_row_nnz: int
    max_row_nnz: int
    density: float
    symmetric_structure: bool

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.nrows}x{self.ncols}, nnz={self.nnz} (Nnzr={self.nnzr:.2f}, "
            f"rows {self.min_row_nnz}..{self.max_row_nnz}), bw={self.bandwidth}, "
            f"density={self.density:.2e}"
        )


def matrix_stats(A: CSRMatrix, *, check_symmetry: bool = True) -> MatrixStats:
    """Compute :class:`MatrixStats` for *A*.

    ``check_symmetry`` compares the structure against the transpose and can
    be disabled for very large matrices.
    """
    row_counts = A.row_nnz()
    sym = False
    if check_symmetry and A.nrows == A.ncols:
        t = A.transpose()
        sym = bool(
            np.array_equal(t.row_ptr, A.row_ptr) and np.array_equal(t.col_idx, A.col_idx)
        )
    denom = max(1, A.nrows) * max(1, A.ncols)
    return MatrixStats(
        nrows=A.nrows,
        ncols=A.ncols,
        nnz=A.nnz,
        nnzr=A.nnzr,
        bandwidth=bandwidth(A),
        min_row_nnz=int(row_counts.min()) if row_counts.size else 0,
        max_row_nnz=int(row_counts.max()) if row_counts.size else 0,
        density=A.nnz / denom,
        symmetric_structure=sym,
    )
