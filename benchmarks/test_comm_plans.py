"""Node-aware communication planning: the acceptance sweep.

The ``repro.comm`` claim, Fig.-5 style: on the Cray torus in pure-MPI
mode (24 ranks per node, so inter-node message count grows with
ranks-per-node squared) with the calibrated NIC injection-rate limit
(:data:`repro.experiments.TORUS_MESSAGE_OVERHEAD`), aggregating halo
exchange through node-local gathers must never lose to the direct
lowering at any node count, and must win big once the message-rate wall
dominates.
"""

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_comm_plans

@pytest.fixture(scope="module")
def study():
    # the small HMeP matrix keeps per-core ranks communication-bound; the
    # sweep runs to 16 nodes (384 ranks)
    return run_comm_plans(scale="small", sweep_nodes=(1, 2, 4, 8, 16))


def test_comm_plans_report(study):
    write_report("comm_plans", study.render())


def test_node_aware_never_loses_on_the_torus(study):
    # the headline acceptance criterion: >= direct at every node count
    assert study.sweep, "sweep produced no points"
    for point in study.sweep:
        assert point.speedup >= 1.0, (
            f"node-aware lost at {point.n_nodes} nodes: "
            f"{point.node_aware_gflops:.2f} vs {point.direct_gflops:.2f} GF"
        )


def test_node_aware_win_grows_with_node_count(study):
    # more nodes -> more pairs x ranks-per-node^2 messages -> a deeper
    # message-rate wall for the direct plan
    multi = [p for p in study.sweep if p.n_nodes > 1]
    assert multi[-1].speedup > 2.0
    speedups = [p.speedup for p in multi]
    assert speedups == sorted(speedups)


def test_single_node_is_a_wash(study):
    # one node has no inter-node traffic at all: both lowerings replay
    # identical intra-node messages
    solo = [p for p in study.sweep if p.n_nodes == 1]
    assert solo and solo[0].speedup == pytest.approx(1.0, rel=1e-6)


def test_accounting_agrees_with_the_simulation(study):
    # the static plan accounting must point the same way the simulator
    # lands: never more inter-node messages (banded per-ld traffic can
    # already be one message per node pair), never more injected bytes
    assert study.stat_rows
    for row in study.stat_rows:
        assert row.node_aware_internode_messages <= row.direct_internode_messages
        assert row.node_aware_injected_mb <= row.direct_injected_mb * (1 + 1e-12)
        assert row.duplicate_factor >= 1.0
