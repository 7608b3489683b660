"""Fig. 5 — strong scaling of HMeP on the Westmere cluster (the headline
result).  Shape assertions follow the paper's Sect. 4 discussion; the
absolute numbers are reduced-scale (see EXPERIMENTS.md)."""

import pytest

from benchmarks.conftest import write_report


def test_fig5_report(fig5_study):
    write_report("fig5_hmep_strong_scaling", fig5_study.render())


def test_single_node_baseline(fig5_study):
    # Fig. 3b: best Westmere single-node performance ~ 5 GFlop/s for HMeP
    assert fig5_study.best_single_node() == pytest.approx(5.0, abs=0.8)


def test_naive_overlap_never_beats_no_overlap(fig5_study):
    """Sect. 4: 'vector mode with naive overlap is always slower than the
    variant without overlap' (per-core panel)."""
    for mode in ("per-core", "per-ld", "per-node"):
        nodes, _ = fig5_study.series(mode, "no_overlap")
        for n in nodes:
            naive = fig5_study.gflops_at(mode, "naive_overlap", n)
            novl = fig5_study.gflops_at(mode, "no_overlap", n)
            assert naive <= novl * 1.05, (mode, n)


def test_task_mode_noticeable_boost(fig5_study):
    """Sect. 4: task mode 'leading to a noticeable performance boost'."""
    for mode in ("per-core", "per-ld", "per-node"):
        nodes, _ = fig5_study.series(mode, "task_mode")
        big = [n for n in nodes if n >= 8]
        for n in big:
            task = fig5_study.gflops_at(mode, "task_mode", n)
            novl = fig5_study.gflops_at(mode, "no_overlap", n)
            assert task > novl * 1.15, (mode, n)


def test_task_mode_scales_to_higher_node_counts(fig5_study):
    """Sect. 4: 'task mode allows strong scaling to much higher levels of
    parallelism with acceptable parallel efficiency than any variant of
    vector mode.'"""
    for mode in ("per-core", "per-ld", "per-node"):
        fp_task = fig5_study.fifty_percent(mode, "task_mode")
        fp_novl = fig5_study.fifty_percent(mode, "no_overlap")
        # vector mode dies before 32 nodes; task mode reaches further
        assert fp_novl is not None and fp_novl < 20
        assert fp_task is None or fp_task > 1.5 * fp_novl


def test_hybrid_task_mode_advantage_grows(fig5_study):
    """Sect. 4: 'With one MPI process per NUMA locality domain the
    advantage of task mode is even more pronounced.'"""
    n = max(fig5_study.series("per-ld", "task_mode")[0])
    ld_gain = (
        fig5_study.gflops_at("per-ld", "task_mode", n)
        / fig5_study.gflops_at("per-ld", "no_overlap", n)
    )
    assert ld_gain > 1.3


def test_scalability_knee_beyond_six_nodes(fig5_study):
    """Sect. 4: 'a universal drop in scalability beyond about six nodes.'
    Incremental efficiency from 8 to 32 nodes must be clearly below the
    4-to-8-node one, for every scheme."""
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        nodes, gf = fig5_study.series("per-ld", scheme)
        d = dict(zip(nodes, gf))
        mid = (d[8] / d[4]) / 2.0
        late = (d[32] / d[8]) / 4.0
        assert late < mid * 0.92, scheme


def test_cray_reference_behind_westmere_at_scale(fig5_study):
    """Sect. 4: 'the Cray XE6 can generally not match the performance of
    the Westmere cluster at larger node counts.'"""
    cray_at = {p.n_nodes: p.gflops for p in fig5_study.cray_best}
    n = max(cray_at)
    west_best = max(
        fig5_study.gflops_at(mode, "task_mode", n) for mode in ("per-ld", "per-node")
    )
    assert cray_at[n] < west_best
    # ... while being competitive (even ahead) at small node counts
    assert cray_at[1] > fig5_study.best_single_node() * 0.9
