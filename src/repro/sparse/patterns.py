"""Block-occupancy aggregation of sparsity patterns (paper Fig. 1).

The paper visualises its matrices by aggregating square subblocks and
colour-coding them by occupancy (fraction of nonzero entries in the
block), on a log scale from 1e-6 to 0.5.  This module computes that
aggregation and renders it as an ASCII heat map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util import ascii_heatmap, check_positive_int

__all__ = ["OccupancyGrid", "block_occupancy"]


@dataclass(frozen=True)
class OccupancyGrid:
    """Occupancy of aggregated ``block x block`` subblocks of a matrix.

    ``occupancy[i, j]`` is the fraction of entries of subblock ``(i, j)``
    that are nonzero, in ``[0, 1]``.
    """

    occupancy: np.ndarray
    block: int
    nrows: int
    ncols: int

    def nonzero_blocks(self) -> int:
        """Number of subblocks containing at least one nonzero."""
        return int(np.count_nonzero(self.occupancy))

    def max_occupancy(self) -> float:
        """Largest block occupancy."""
        return float(self.occupancy.max()) if self.occupancy.size else 0.0

    def diagonal_fraction(self) -> float:
        """Fraction of the nonzero *blocks* lying on the block diagonal.

        Distinguishes narrow-banded patterns (sAMG, HMeP: high) from
        scattered ones (HMEp: low).
        """
        nz = self.nonzero_blocks()
        if nz == 0:
            return 0.0
        diag = int(np.count_nonzero(np.diag(self.occupancy)))
        return diag / nz

    def band_fraction(self, halfwidth_blocks: int) -> float:
        """Fraction of nonzero *entries* within ``halfwidth_blocks`` of the diagonal."""
        g = self.occupancy
        total = g.sum()
        if total == 0:
            return 0.0
        n = min(g.shape)
        rows, cols = np.indices(g.shape)
        mask = np.abs(rows - cols) <= halfwidth_blocks
        return float(g[mask].sum() / total)

    def render(self, title: str | None = None) -> str:
        """ASCII heat map on a log scale, like the paper's colour coding."""
        return ascii_heatmap(self.occupancy.tolist(), title=title, log=True)


def block_occupancy(A: CSRMatrix, grid: int = 48) -> OccupancyGrid:
    """Aggregate *A* into at most ``grid x grid`` square subblocks.

    The block edge is ``ceil(max(shape) / grid)`` so very rectangular
    matrices still get square blocks (as in the paper's figure).
    """
    grid = check_positive_int(grid, "grid")
    edge = max(1, -(-max(A.nrows, A.ncols) // grid))
    grows = -(-A.nrows // edge)
    gcols = -(-A.ncols // edge)
    counts = np.zeros((grows, gcols), dtype=np.int64)
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_nnz())
    np.add.at(counts, (rows // edge, A.col_idx // edge), 1)
    # occupancy = nonzeros / block area, with edge blocks possibly smaller
    row_sizes = np.minimum(edge, A.nrows - np.arange(grows) * edge)
    col_sizes = np.minimum(edge, A.ncols - np.arange(gcols) * edge)
    areas = row_sizes[:, None] * col_sizes[None, :]
    return OccupancyGrid(counts / areas, edge, A.nrows, A.ncols)
