"""Fig. 6 — strong scaling of sAMG: the communication-light counterpoint.

Paper claims encoded: all hybrid variants scale similarly, the hybrid
panels stay above 50 % parallel efficiency to 32 nodes, task mode gives
no real advantage, and the Cray's best variant is vector mode without
overlap over most of the range.
"""

from benchmarks.conftest import write_report
from repro.core import parallel_efficiency


def test_fig6_report(fig6_study):
    write_report("fig6_samg_strong_scaling", fig6_study.render())


def test_all_hybrid_variants_above_50_percent(fig6_study):
    """Paper: 'Parallel efficiency is above 50 % for all versions up to 32
    nodes' — in the reproduction this holds for the hybrid panels; the
    pure-MPI panel lands slightly below due to the ~15x smaller matrix
    (documented deviation, EXPERIMENTS.md)."""
    base = fig6_study.best_single_node()
    for mode in ("per-ld", "per-node"):
        for scheme in ("no_overlap", "naive_overlap", "task_mode"):
            nodes, gf = fig6_study.series(mode, scheme)
            for n, g in zip(nodes, gf):
                assert parallel_efficiency(g, n, base) > 0.5, (mode, scheme, n)


def test_pure_mpi_close_to_50_percent(fig6_study):
    base = fig6_study.best_single_node()
    nodes, gf = fig6_study.series("per-core", "no_overlap")
    eff_32 = parallel_efficiency(gf[-1], nodes[-1], base)
    assert eff_32 > 0.40  # paper: > 0.5 at full scale; reduced-scale artifact


def test_task_mode_no_advantage_in_hybrid_panels(fig6_study):
    """Paper: 'there is no advantage of task mode over naive, pure MPI
    without overlap' — within a few percent in the hybrid panels."""
    for mode in ("per-ld", "per-node"):
        for n in (1, 2, 4, 8):
            task = fig6_study.gflops_at(mode, "task_mode", n)
            novl = fig6_study.gflops_at(mode, "no_overlap", n)
            assert task < novl * 1.10, (mode, n)


def test_all_variants_within_band(fig6_study):
    """Paper: 'all variants and hybrid modes show similar scaling
    behavior' — at moderate node counts every variant sits within a
    ~30 % band of the best."""
    for n in (1, 2, 4, 8):
        values = [
            fig6_study.gflops_at(mode, scheme, n)
            for mode in ("per-ld", "per-node")
            for scheme in ("no_overlap", "naive_overlap", "task_mode")
        ]
        assert min(values) > 0.7 * max(values), n


def test_cray_best_is_vector_mode_without_overlap(fig6_study):
    """Paper: 'On the Cray XE6, vector mode without overlap performs best.'
    True over most of the sweep in the reproduction (the largest node
    counts flip to task mode at reduced scale)."""
    novl_points = [p for p in fig6_study.cray_best if p.scheme == "no_overlap"]
    assert len(novl_points) >= len(fig6_study.cray_best) / 2


def test_samg_scales_further_than_hmep(fig5_study, fig6_study):
    """The two figures' joint message: the communication-light matrix
    scales much further."""
    base5 = fig5_study.best_single_node()
    base6 = fig6_study.best_single_node()
    n = 32
    eff_hmep = fig5_study.gflops_at("per-ld", "no_overlap", n) / (n * base5)
    eff_samg = fig6_study.gflops_at("per-ld", "no_overlap", n) / (n * base6)
    assert eff_samg > eff_hmep * 1.2
