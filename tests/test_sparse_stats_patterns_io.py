"""Structure statistics and block-occupancy patterns."""

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    bandwidth,
    block_occupancy,
    matrix_stats,
)


def test_bandwidth_tridiagonal():
    m = CSRMatrix.from_dense(np.eye(10) + np.diag(np.ones(9), 1) + np.diag(np.ones(9), -1))
    assert bandwidth(m) == 1


def test_bandwidth_empty():
    m = CSRMatrix(np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), ncols=2)
    assert bandwidth(m) == 0


def test_matrix_stats(hmep_tiny):
    s = matrix_stats(hmep_tiny)
    assert s.nrows == s.ncols == 540
    assert s.symmetric_structure
    assert s.min_row_nnz >= 1
    assert s.nnzr == pytest.approx(hmep_tiny.nnzr)
    assert "540x540" in s.describe()


def test_block_occupancy_identity():
    m = CSRMatrix.identity(100)
    g = block_occupancy(m, grid=10)
    assert g.occupancy.shape == (10, 10)
    # all nonzero blocks on the diagonal
    assert g.diagonal_fraction() == 1.0
    assert g.band_fraction(0) == 1.0
    assert g.nonzero_blocks() == 10


def test_block_occupancy_values():
    m = CSRMatrix.from_dense(np.ones((4, 4)))
    g = block_occupancy(m, grid=2)
    assert np.allclose(g.occupancy, 1.0)
    assert g.max_occupancy() == 1.0


def test_block_occupancy_orderings_differ(hmep_tiny, hmep_bad_tiny):
    g_good = block_occupancy(hmep_tiny, grid=30)
    g_bad = block_occupancy(hmep_bad_tiny, grid=30)
    # the paper's Fig. 1 message: HMeP is banded, HMEp scattered
    assert g_good.band_fraction(3) > g_bad.band_fraction(3)


def test_occupancy_render(hmep_tiny):
    text = block_occupancy(hmep_tiny, grid=20).render(title="x")
    assert text.startswith("x")
    assert len(text.splitlines()) == 21
