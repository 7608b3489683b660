"""Fig. 2 — node topologies of the benchmark systems."""

from benchmarks.conftest import write_report
from repro.experiments import run_fig2
from repro.machine import plan_placement, westmere_cluster


def test_fig2_report():
    r = run_fig2()
    write_report("fig2_node_topologies", r.render())
    assert r.westmere.n_domains == 2
    assert r.magny_cours.n_domains == 4
    # channel-count bandwidth advantage (paper: 8/6)
    ratio = r.magny_cours.stream_bandwidth / r.westmere.stream_bandwidth
    assert 1.1 < ratio < 1.4


def test_placement_planning():
    placements = plan_placement(westmere_cluster(32), "per-core", comm_thread="smt")
    assert len(placements) == 384
