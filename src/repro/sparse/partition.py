"""Row-block partitioning of sparse matrices across processes.

MPI parallelisation of spMVM "is generally done by distributing the
nonzeros (or, alternatively, the matrix rows), the right hand side
vector B and the result vector C evenly across MPI processes"
(Sect. 3.1).  The paper uses a *balanced distribution of nonzeros*
(footnote 2); we implement both strategies plus the helper queries the
communication bookkeeping needs.

A partition is represented by its row boundaries: an ``int64`` array
``offsets`` of length ``nparts + 1`` with ``offsets[0] == 0`` and
``offsets[-1] == nrows``; part ``p`` owns rows
``[offsets[p], offsets[p+1])`` and, for square matrices, the matching
slices of B and C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util import check_positive_int, require

__all__ = [
    "RowPartition",
    "partition_rows_balanced",
    "partition_nnz_balanced",
    "partition_matrix",
]


@dataclass(frozen=True)
class RowPartition:
    """A contiguous row-block partition of an ``nrows``-row matrix."""

    offsets: np.ndarray  # int64, len nparts+1

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        require(offsets.ndim == 1 and offsets.size >= 2, "offsets must have length >= 2")
        require(offsets[0] == 0, "offsets[0] must be 0")
        require(bool(np.all(np.diff(offsets) >= 0)), "offsets must be non-decreasing")

    @property
    def nparts(self) -> int:
        """Number of parts."""
        return int(self.offsets.size - 1)

    @property
    def nrows(self) -> int:
        """Total number of rows covered."""
        return int(self.offsets[-1])

    def bounds(self, part: int) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` owned by *part*."""
        if not (0 <= part < self.nparts):
            raise IndexError(f"part {part} out of range (nparts={self.nparts})")
        return int(self.offsets[part]), int(self.offsets[part + 1])

    def size(self, part: int) -> int:
        """Number of rows owned by *part*."""
        lo, hi = self.bounds(part)
        return hi - lo

    def sizes(self) -> np.ndarray:
        """Row counts of all parts."""
        return np.diff(self.offsets)

    def owner_of(self, rows: np.ndarray) -> np.ndarray:
        """Owning part of each global row index (vectorised)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.nrows):
            raise ValueError("row index out of range")
        return np.searchsorted(self.offsets, rows, side="right") - 1


def partition_rows_balanced(nrows: int, nparts: int) -> RowPartition:
    """Split rows into *nparts* nearly equal contiguous blocks."""
    nparts = check_positive_int(nparts, "nparts")
    if nrows < 0:
        raise ValueError("nrows must be >= 0")
    base, extra = divmod(nrows, nparts)
    sizes = np.full(nparts, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return RowPartition(offsets)


def partition_nnz_balanced(A: CSRMatrix, nparts: int) -> RowPartition:
    """Split rows so each contiguous block carries ≈ ``nnz/nparts`` nonzeros.

    This is the paper's distribution strategy (footnote 2: "We use a
    balanced distribution of nonzeros across the MPI processes").  Row
    boundaries are found by searching the CSR ``row_ptr`` array for the
    ideal nonzero offsets, so the split is O(nparts log nrows).
    """
    nparts = check_positive_int(nparts, "nparts")
    offsets = np.empty(nparts + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[-1] = A.nrows
    if nparts > 1:
        if A.nrows > 1:
            targets = (np.arange(1, nparts, dtype=np.float64) * A.nnz / nparts).astype(np.int64)
            cuts = np.searchsorted(A.row_ptr[1:-1], targets, side="left") + 1
            # clip so boundaries stay monotone even for pathological matrices
            offsets[1:-1] = np.minimum(np.maximum.accumulate(cuts), A.nrows)
        else:
            # fewer than two rows cannot be cut: part 0 owns everything,
            # the surplus parts are empty (degenerate but valid offsets)
            offsets[1:-1] = A.nrows
    return RowPartition(offsets)


def partition_matrix(A: CSRMatrix, nparts: int, *, strategy: str = "nnz") -> RowPartition:
    """Partition *A* by the named strategy: ``"nnz"`` (paper default) or ``"rows"``."""
    if strategy == "nnz":
        return partition_nnz_balanced(A, nparts)
    if strategy == "rows":
        return partition_rows_balanced(A.nrows, nparts)
    raise ValueError(f"unknown partition strategy {strategy!r} (use 'nnz' or 'rows')")
