"""Sparse matrix substrate: CRS/CSR storage, kernels, reordering, partitioning.

This package implements, from scratch, everything the paper's Sect. 1.2
and 3.1 rely on: the CRS format and its matrix-vector kernels (including
the split local/nonlocal kernel of the overlap schemes), Reverse
Cuthill-McKee reordering, row-block partitioners, structure statistics
and block-occupancy pattern aggregation (Fig. 1).

The CSR row sums have two executors — the numpy definition and a C loop
compiled once per machine (:mod:`repro.sparse.native`); the second is
built, loaded and proven bit-identical to the first right here, at
import, so that no kernel call ever pays for it.
"""

from repro.sparse import native
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.kron import kron, kron_diag_left
from repro.sparse.partition import (
    RowPartition,
    partition_matrix,
    partition_nnz_balanced,
    partition_rows_balanced,
)
from repro.sparse.patterns import OccupancyGrid, block_occupancy
from repro.sparse.reorder import (
    bfs_levels,
    cuthill_mckee,
    pseudo_peripheral_node,
    reverse_cuthill_mckee,
)
from repro.sparse.spmv import flops, spmm, spmm_add, spmv, spmv_add, spmv_split, spmv_traffic
from repro.sparse.stats import MatrixStats, bandwidth, matrix_stats
from repro.sparse.symmetric import SymmetricCSR, spmv_symmetric, symmetric_code_balance

native.load()

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "RowPartition",
    "partition_matrix",
    "partition_nnz_balanced",
    "partition_rows_balanced",
    "kron",
    "kron_diag_left",
    "OccupancyGrid",
    "block_occupancy",
    "cuthill_mckee",
    "reverse_cuthill_mckee",
    "bfs_levels",
    "pseudo_peripheral_node",
    "spmv",
    "spmv_add",
    "spmv_split",
    "spmv_traffic",
    "spmm",
    "spmm_add",
    "flops",
    "MatrixStats",
    "matrix_stats",
    "bandwidth",
    "SymmetricCSR",
    "spmv_symmetric",
    "symmetric_code_balance",
]
