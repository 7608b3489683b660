"""Fig. 3 — node-level performance analysis (both panels).

Also cross-checks the discrete-event simulator against the closed-form
code-balance prediction on a single node: the simulator must reproduce
the model when no interconnect is involved.
"""

import pytest

from benchmarks.conftest import write_report
from repro.core import simulate_spmvm
from repro.experiments import KAPPA, run_fig3
from repro.machine import westmere_cluster
from repro.model import CodeBalanceModel


@pytest.fixture(scope="module")
def fig3():
    return run_fig3()


def test_fig3_report(fig3):
    write_report("fig3_node_level_performance", fig3.render())


def test_fig3_paper_annotations_reproduced(fig3):
    rows = [r for r in fig3.by_machine("Nehalem EP") if r.unit == "LD"]
    paper = [0.91, 1.50, 1.95, 2.25]
    for row, expected in zip(rows, paper):
        assert row.spmv_gflops == pytest.approx(expected, abs=0.02)
    node = [r for r in fig3.by_machine("Nehalem EP") if r.unit == "node"][0]
    assert node.spmv_gflops == pytest.approx(4.29, abs=0.25)  # paper: 4.29


def test_fig3_ld_saturates_at_four_cores(fig3):
    for machine in ("Nehalem EP", "Westmere EP", "Magny Cours"):
        assert fig3.saturation_core_count(machine, threshold=0.92) <= 4


def test_fig3_amd_node_advantage(fig3):
    west = [r for r in fig3.by_machine("Westmere EP") if r.unit == "node"][0]
    amd = [r for r in fig3.by_machine("Magny Cours") if r.unit == "node"][0]
    # paper: "its node-level performance is about 25 % higher than on
    # Westmere due to its four LDs per node", despite the weaker LD
    amd_ld = [r for r in fig3.by_machine("Magny Cours") if r.unit == "LD"][-1]
    west_ld = [r for r in fig3.by_machine("Westmere EP") if r.unit == "LD"][-1]
    assert amd_ld.spmv_gflops < west_ld.spmv_gflops
    assert amd.spmv_gflops / west.spmv_gflops == pytest.approx(1.25, abs=0.05)


def test_simulator_agrees_with_model_on_one_node(hmep_matrix):
    cluster = westmere_cluster(1)
    result = simulate_spmvm(
        hmep_matrix, cluster, mode="per-node", scheme="no_overlap",
        kappa=KAPPA["HMeP"], eager_threshold=1024,
    )
    model = CodeBalanceModel(nnzr=hmep_matrix.nnzr, kappa=KAPPA["HMeP"])
    predicted = model.performance(cluster.node.spmv_bandwidth) / 1e9
    assert result.gflops == pytest.approx(predicted, rel=0.12)


def test_single_node_simulation(hmep_matrix):
    result = simulate_spmvm(
        hmep_matrix, westmere_cluster(1), mode="per-ld", scheme="task_mode",
        kappa=KAPPA["HMeP"], eager_threshold=1024,
    )
    assert result.gflops > 0
