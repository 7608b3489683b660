"""Analysis benchmarks beyond the paper's figures:

* κ predicted from matrix structure (LRU cache model) vs the paper's
  measured values — turning Sect. 2's explanation into a test,
* internode communication volume vs node count — the quantitative basis
  of the Fig. 5 scalability knee.
"""

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_comm_volume, run_kappa_prediction


@pytest.fixture(scope="module")
def kappa_pred():
    return run_kappa_prediction("medium")


def test_kappa_prediction_report(kappa_pred):
    write_report("analysis_kappa_prediction", kappa_pred.render())


def test_kappa_prediction_matches_paper(kappa_pred):
    k_good = kappa_pred.predictions["HMeP"].kappa
    k_bad = kappa_pred.predictions["HMEp"].kappa
    # The hard prediction is the *ordering* and its size: the scattered
    # HMEp ordering reloads ~1.5-2x more RHS traffic (paper: 3.79/2.5 =
    # 1.52).  Magnitudes depend on the reduced matrix's band-to-cache
    # ratio: 1.97/3.43 at small scale, 1.14/2.10 at medium, bracketing
    # the measured 2.5/3.79 within a factor ~2 from structure alone.
    assert k_bad > k_good * 1.4
    assert k_bad / k_good == pytest.approx(3.79 / 2.5, rel=0.35)
    assert 0.8 < k_good < 3.5
    assert 1.6 < k_bad < 5.5


@pytest.fixture(scope="module")
def volumes():
    return run_comm_volume("medium")


def test_comm_volume_report(volumes):
    write_report("analysis_comm_volume", volumes.render())


def test_comm_volume_knee(volumes):
    series = volumes.series("HMeP", "per-ld")
    by_nodes = {r.n_nodes: r.internode_mb for r in series}
    early_rate = (by_nodes[6] - by_nodes[2]) / 4.0
    late_rate = (by_nodes[32] - by_nodes[8]) / 24.0
    assert late_rate < 0.7 * early_rate


def test_comm_volume_contrast(volumes):
    h = {r.n_nodes: r.internode_mb for r in volumes.series("HMeP", "per-ld")}
    s = {r.n_nodes: r.internode_mb for r in volumes.series("sAMG", "per-ld")}
    # per flop, HMeP communicates far more than sAMG at every node count
    for n in (4, 8, 16, 32):
        assert h[n] > 1.5 * s[n]


def test_cache_simulation(hmep_matrix):
    from repro.model import CacheConfig, simulate_rhs_traffic

    pred = simulate_rhs_traffic(
        hmep_matrix, config=CacheConfig(capacity_bytes=65536), sample_rows=20_000
    )
    assert pred.accesses > 0
