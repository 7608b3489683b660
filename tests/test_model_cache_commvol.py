"""Cache-based κ prediction and the communication-volume analysis."""

import numpy as np
import pytest

from repro.experiments import run_comm_volume, run_kappa_prediction
from repro.matrices import poisson_1d, random_sparse
from repro.model import CacheConfig, simulate_rhs_traffic
from repro.sparse import CSRMatrix


# ----------------------------------------------------------------------
# LRU cache model
# ----------------------------------------------------------------------
def test_cache_config_lines():
    cfg = CacheConfig(capacity_bytes=64 * 1024, rhs_cache_fraction=0.5)
    assert cfg.lines == 512  # 32 KiB of 64 B lines


def test_sequential_access_has_no_reloads():
    # a banded matrix touching the RHS almost sequentially: every line is
    # loaded once (compulsory) and never again after eviction
    A = poisson_1d(5000)
    pred = simulate_rhs_traffic(A, CacheConfig(capacity_bytes=8192), sample_rows=None)
    assert pred.reloads == 0
    assert pred.kappa == 0.0
    assert pred.compulsory > 0


def test_tiny_cache_forces_reloads():
    # random accesses over a working set much larger than the cache
    A = random_sparse(20_000, nnzr=8, seed=1)
    small = simulate_rhs_traffic(A, CacheConfig(capacity_bytes=4096), sample_rows=None)
    assert small.reloads > 0
    assert small.kappa > 1.0


def test_kappa_monotone_in_cache_size():
    A = random_sparse(20_000, nnzr=8, seed=2)
    kappas = [
        simulate_rhs_traffic(A, CacheConfig(capacity_bytes=c), sample_rows=None).kappa
        for c in (4096, 65536, 16 * 1024 * 1024)
    ]
    assert kappas[0] >= kappas[1] >= kappas[2]
    assert kappas[2] == 0.0  # whole RHS fits


def test_huge_cache_only_compulsory_misses():
    A = random_sparse(5000, nnzr=6, seed=3)
    pred = simulate_rhs_traffic(
        A, CacheConfig(capacity_bytes=1 << 30), sample_rows=None
    )
    assert pred.misses == pred.compulsory
    assert pred.miss_rate < 1.0


def test_sampling_approximates_full_run():
    A = random_sparse(30_000, nnzr=8, seed=4)
    cfg = CacheConfig(capacity_bytes=16 * 1024)
    full = simulate_rhs_traffic(A, cfg, sample_rows=None).kappa
    sampled = simulate_rhs_traffic(A, cfg, sample_rows=10_000, seed=1).kappa
    assert sampled == pytest.approx(full, rel=0.25)


def test_kappa_prediction_reproduces_paper_ordering(hmep_tiny, hmep_bad_tiny):
    # even at tiny scale the scattered ordering must reload more
    cfg = CacheConfig(capacity_bytes=2048, rhs_cache_fraction=0.5)
    k_good = simulate_rhs_traffic(hmep_tiny, cfg, sample_rows=None).kappa
    k_bad = simulate_rhs_traffic(hmep_bad_tiny, cfg, sample_rows=None).kappa
    assert k_bad > k_good


def test_kappa_prediction_experiment_small():
    result = run_kappa_prediction("small")
    k_good = result.predictions["HMeP"].kappa
    k_bad = result.predictions["HMEp"].kappa
    # the paper's ordering and rough magnitudes (2.5 / 3.79)
    assert k_bad > k_good
    assert 1.0 < k_good < 3.5
    assert 2.0 < k_bad < 5.0
    assert "paper κ" in result.render()


# ----------------------------------------------------------------------
# communication-volume analysis
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def volumes():
    return run_comm_volume("small", node_counts=(1, 2, 4, 6, 8, 16))


def test_single_node_has_no_internode_traffic(volumes):
    for matrix in ("HMeP", "sAMG"):
        row = volumes.series(matrix, "per-ld")[0]
        assert row.n_nodes == 1
        assert row.internode_mb == 0.0
        assert row.internode_messages == 0


def test_internode_volume_grows_with_nodes(volumes):
    for matrix in ("HMeP", "sAMG"):
        series = volumes.series(matrix, "per-ld")
        vols = [r.internode_mb for r in series]
        assert all(b >= a for a, b in zip(vols, vols[1:]))


def test_knee_explanation_steep_then_flat(volumes):
    # paper: "strong decrease in overall internode communication volume
    # when the number of nodes is small" — per added node, the volume
    # ramps steeply below ~6-8 nodes and flattens afterwards
    series = volumes.series("HMeP", "per-ld")
    by_nodes = {r.n_nodes: r.internode_mb for r in series}
    early_rate = (by_nodes[6] - by_nodes[2]) / 4.0
    late_rate = (by_nodes[16] - by_nodes[8]) / 8.0
    assert late_rate < early_rate


def test_hmep_much_heavier_than_samg(volumes):
    h = volumes.series("HMeP", "per-ld")[-1]
    s = volumes.series("sAMG", "per-ld")[-1]
    assert h.internode_mb > 2.5 * s.internode_mb


def test_message_counts_consistent(volumes):
    for r in volumes.rows:
        assert r.internode_messages <= r.messages
        assert r.internode_mb <= r.total_mb + 1e-12
    assert "knee" in volumes.render()
