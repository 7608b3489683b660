"""Simulation runner: end-to-end scheme behaviour on the calibrated machines.

These tests encode the paper's *qualitative* claims at a small scale, so
they run in seconds; the full-scale shape checks live in benchmarks/.
"""

import pytest

from repro.core import build_halo_plan, simulate_from_plan, simulate_spmvm
from repro.machine import cray_xe6_cluster, westmere_cluster
from repro.sparse import partition_matrix

EAGER = 1024  # scaled eager threshold for the reduced-size matrices


@pytest.fixture(scope="module")
def sim_matrix(hmep_small):
    return hmep_small


def test_result_accounting(sim_matrix):
    cl = westmere_cluster(2)
    r = simulate_spmvm(sim_matrix, cl, mode="per-ld", scheme="no_overlap", kappa=2.5,
                       eager_threshold=EAGER, iterations=3)
    assert r.n_ranks == 4
    assert r.iterations == 3
    assert r.total_seconds > 0
    assert r.seconds_per_mvm == pytest.approx(r.total_seconds / 3)
    assert r.gflops == pytest.approx(2 * sim_matrix.nnz / r.seconds_per_mvm / 1e9)
    assert "no_overlap" in r.describe()


def test_single_node_performance_close_to_model(sim_matrix):
    # one rank per node on one node: no network, pure membus: the simulator
    # must land near bandwidth / code balance
    cl = westmere_cluster(1)
    r = simulate_spmvm(sim_matrix, cl, mode="per-node", scheme="no_overlap", kappa=2.5,
                       eager_threshold=EAGER)
    from repro.model import CodeBalanceModel

    model = CodeBalanceModel(nnzr=sim_matrix.nnzr, kappa=2.5)
    predicted = model.performance(cl.node.spmv_bandwidth) / 1e9
    assert r.gflops == pytest.approx(predicted, rel=0.15)


def test_task_mode_beats_vector_modes_when_comm_bound(sim_matrix):
    cl = westmere_cluster(4)
    common = dict(mode="per-ld", kappa=2.5, eager_threshold=EAGER)
    novl = simulate_spmvm(sim_matrix, cl, scheme="no_overlap", **common)
    task = simulate_spmvm(sim_matrix, cl, scheme="task_mode", **common)
    assert task.gflops > novl.gflops


def test_naive_overlap_no_better_than_no_overlap(sim_matrix):
    # with 2010-era progress semantics the naive overlap cannot win
    cl = westmere_cluster(4)
    common = dict(mode="per-ld", kappa=2.5, eager_threshold=EAGER)
    novl = simulate_spmvm(sim_matrix, cl, scheme="no_overlap", **common)
    naive = simulate_spmvm(sim_matrix, cl, scheme="naive_overlap", **common)
    assert naive.gflops <= novl.gflops * 1.05


def test_async_progress_rescues_naive_overlap(sim_matrix):
    cl = westmere_cluster(4)
    common = dict(mode="per-ld", kappa=2.5, eager_threshold=EAGER)
    blocked = simulate_spmvm(sim_matrix, cl, scheme="naive_overlap", **common)
    async_ = simulate_spmvm(sim_matrix, cl, scheme="naive_overlap",
                            async_progress=True, **common)
    assert async_.gflops > blocked.gflops * 1.1


def test_comm_thread_placement_equivalent_when_saturated(sim_matrix):
    # paper: SMT virtual core vs dedicated physical core — no difference,
    # because the memory bus saturates at ~4 of 6 threads
    cl = westmere_cluster(4)
    common = dict(mode="per-ld", scheme="task_mode", kappa=2.5, eager_threshold=EAGER)
    smt = simulate_spmvm(sim_matrix, cl, comm_thread="smt", **common)
    ded = simulate_spmvm(sim_matrix, cl, comm_thread="dedicated", **common)
    assert ded.gflops == pytest.approx(smt.gflops, rel=0.10)


def test_cray_uses_dedicated_comm_core_by_default(sim_matrix):
    cl = cray_xe6_cluster(2)
    r = simulate_spmvm(sim_matrix, cl, mode="per-ld", scheme="task_mode", kappa=2.5,
                       eager_threshold=EAGER)
    assert r.gflops > 0


def test_more_nodes_more_performance(sim_matrix):
    perf = []
    for n in (1, 2, 4):
        cl = westmere_cluster(n)
        r = simulate_spmvm(sim_matrix, cl, mode="per-node", scheme="task_mode",
                           kappa=2.5, eager_threshold=EAGER)
        perf.append(r.gflops)
    assert perf[0] < perf[1] < perf[2]


def test_plan_rank_count_must_match_mode(sim_matrix):
    cl = westmere_cluster(2)
    plan = build_halo_plan(sim_matrix, partition_matrix(sim_matrix, 3), with_matrices=False)
    with pytest.raises(ValueError, match="ranks"):
        simulate_from_plan(plan, cl, mode="per-ld", scheme="no_overlap")


def test_trace_collection(sim_matrix):
    cl = westmere_cluster(1)
    r = simulate_spmvm(sim_matrix, cl, mode="per-ld", scheme="task_mode", kappa=2.5,
                       eager_threshold=EAGER, trace=True)
    assert r.trace is not None
    labels = {s.label for s in r.trace.spans}
    assert "local spMVM" in labels
    assert "MPI_Waitall" in labels


def test_a_torus_with_no_capacity_left_is_rejected():
    from repro.machine import Torus2D

    with pytest.raises(ValueError, match=r"background_load must lie in \[0, 1\), got 1.0"):
        Torus2D(latency=1e-6, background_load=1.0)


def test_a_stalled_simulation_names_the_ranks_and_their_flows(hmep_tiny):
    """Built past the check, a torus whose link pool has capacity 0 stalls
    every inter-node message: the run ends with the ranks that never
    finished and the flows left, not with an IndexError."""
    import dataclasses

    from repro.machine import Torus2D

    cluster = cray_xe6_cluster(2)
    torus = Torus2D(latency=1e-6)
    object.__setattr__(torus, "background_load", 1.0)
    with pytest.raises(RuntimeError, match=r"rank\(s\) \[0, 1\] never finished") as info:
        simulate_spmvm(hmep_tiny, dataclasses.replace(cluster, network=torus), mode="per-node")
    assert "msg 0->1" in str(info.value) and "rate 0 B/s" in str(info.value)
