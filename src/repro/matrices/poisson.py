"""Structured finite-difference Poisson matrices.

Standard 5-point (2-D) and 7-point (3-D) Laplacians with Dirichlet
boundary conditions, assembled directly in triplet form.  These serve as
well-understood reference workloads next to the paper's two application
matrices.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.util import check_positive_int

__all__ = ["poisson_1d", "poisson_2d", "poisson_3d"]


def poisson_1d(n: int) -> CSRMatrix:
    """Tridiagonal ``[-1, 2, -1]`` Laplacian on *n* interior points."""
    n = check_positive_int(n, "n")
    idx = np.arange(n, dtype=np.int64)
    rows = np.concatenate([idx, idx[:-1], idx[1:]])
    cols = np.concatenate([idx, idx[1:], idx[:-1]])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)])
    return COOMatrix(n, n, rows, cols, vals).to_csr()


def _structured_laplacian(shape: tuple[int, ...]) -> CSRMatrix:
    """Dirichlet Laplacian on a structured grid of the given shape.

    Diagonal = 2 * ndim, one ``-1`` per grid neighbour; lexicographic
    point numbering (last axis fastest).
    """
    ndim = len(shape)
    n = int(np.prod(shape))
    index = np.arange(n, dtype=np.int64).reshape(shape)
    rows = [index.ravel()]
    cols = [index.ravel()]
    vals = [np.full(n, 2.0 * ndim)]
    for axis in range(ndim):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        a = index[tuple(lo)].ravel()
        b = index[tuple(hi)].ravel()
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([np.full(a.size, -1.0), np.full(a.size, -1.0)])
    return COOMatrix(
        n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    ).to_csr()


def poisson_2d(nx: int, ny: int | None = None) -> CSRMatrix:
    """5-point Laplacian on an ``nx x ny`` grid (Dirichlet)."""
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    return _structured_laplacian((nx, ny))


def poisson_3d(nx: int, ny: int | None = None, nz: int | None = None) -> CSRMatrix:
    """7-point Laplacian on an ``nx x ny x nz`` grid (Dirichlet).

    Average Nnzr approaches 7 for large grids — the same regime as the
    paper's sAMG matrix.
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    nz = nx if nz is None else check_positive_int(nz, "nz")
    return _structured_laplacian((nx, ny, nz))
