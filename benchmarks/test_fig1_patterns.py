"""Fig. 1 — sparsity patterns (block-occupancy maps) of the three matrices."""

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_fig1
from repro.sparse import block_occupancy


@pytest.fixture(scope="module")
def fig1():
    # the pattern plots read best at small scale
    return run_fig1(scale="small", grid=40)


def test_fig1_report(fig1):
    write_report("fig1_sparsity_patterns", fig1.render())


def test_fig1_shape_claims(fig1):
    # HMEp scatters across the matrix; HMeP and sAMG are banded
    assert fig1.stats["HMEp"]["band_fraction"] < fig1.stats["HMeP"]["band_fraction"]
    assert fig1.stats["sAMG"]["band_fraction"] > 0.95
    # Nnzr of the reproduction matrices
    assert 9.0 < fig1.stats["HMeP"]["nnzr"] < 16.0
    assert 6.0 < fig1.stats["sAMG"]["nnzr"] < 8.0


def test_block_occupancy(hmep_matrix):
    grid = block_occupancy(hmep_matrix, 48)
    assert grid.nonzero_blocks() > 0
