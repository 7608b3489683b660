"""Metamorphic tests of the simulation physics.

Rather than asserting absolute numbers, these tests check that the
simulator responds to controlled input transformations the way the
physical system must: value-independence, determinism, monotonicity in
bandwidth, conservation of transferred bytes, and the ordering
relations between library configurations.
"""

import numpy as np
import pytest

from repro.core import build_halo_plan, simulate_from_plan, simulate_spmvm
from repro.machine import (
    ClusterSpec,
    FatTree,
    LocalityDomain,
    NodeSpec,
    Socket,
    ranks_for_mode,
    westmere_cluster,
)
from repro.model import SaturationCurve
from repro.sparse import partition_matrix

EAGER = 1024


@pytest.fixture(scope="module")
def matrix(hmep_small):
    return hmep_small


@pytest.fixture(scope="module")
def plan16(matrix):
    cluster = westmere_cluster(4)
    return build_halo_plan(
        matrix, partition_matrix(matrix, ranks_for_mode(cluster, "per-ld")),
        with_matrices=False,
    )


def _run(plan, cluster, **kw):
    kw.setdefault("mode", "per-ld")
    kw.setdefault("scheme", "task_mode")
    kw.setdefault("kappa", 2.5)
    kw.setdefault("eager_threshold", EAGER)
    return simulate_from_plan(plan, cluster, **kw)


def test_determinism(plan16):
    cluster = westmere_cluster(4)
    a = _run(plan16, cluster)
    b = _run(plan16, cluster)
    assert a.total_seconds == b.total_seconds
    assert a.bytes_transferred == b.bytes_transferred


def test_timing_independent_of_matrix_values(matrix, plan16):
    # the simulator consumes only structure; scaling values changes nothing
    cluster = westmere_cluster(4)
    scaled_plan = build_halo_plan(
        matrix.scale(7.5), partition_matrix(matrix, plan16.nranks), with_matrices=False
    )
    a = _run(plan16, cluster)
    b = _run(scaled_plan, cluster)
    assert a.total_seconds == pytest.approx(b.total_seconds, rel=1e-12)


def _scaled_cluster(factor: float, n_nodes: int = 4) -> ClusterSpec:
    """Westmere cluster with every bandwidth multiplied by *factor*."""
    base = westmere_cluster(n_nodes)
    dom = base.node.domains[0]

    def scaled(curve: SaturationCurve) -> SaturationCurve:
        return SaturationCurve(curve.cores, tuple(b * factor for b in curve.bandwidth))

    ld = LocalityDomain(
        n_cores=dom.n_cores,
        smt_per_core=dom.smt_per_core,
        stream_curve=scaled(dom.stream_curve),
        spmv_curve=scaled(dom.spmv_curve),
        peak_core_flops=dom.peak_core_flops,
    )
    node = NodeSpec(
        name="scaled",
        sockets=(Socket((ld,)), Socket((ld,))),
        nic_bandwidth=base.node.nic_bandwidth * factor,
        nic_latency=base.node.nic_latency,
        intra_bandwidth=base.node.intra_bandwidth * factor,
        intra_latency=base.node.intra_latency,
    )
    return ClusterSpec(
        name="scaled",
        node=node,
        n_nodes=n_nodes,
        network=FatTree(
            latency=1e-12,  # effectively zero: the pure-bandwidth regime
            link_bandwidth=base.node.nic_bandwidth * factor,
        ),
    )


def test_doubling_all_bandwidths_halves_time(plan16):
    # with (near-)zero network latency and the barrier-free scheme the
    # system is pure bandwidth: time ~ 1/bw.  (Task mode would retain its
    # fixed OpenMP-barrier cost, which correctly does not scale.)
    slow = _run(plan16, _scaled_cluster(1.0), scheme="no_overlap")
    fast = _run(plan16, _scaled_cluster(2.0), scheme="no_overlap")
    assert fast.total_seconds == pytest.approx(slow.total_seconds / 2.0, rel=0.02)


def test_bandwidth_monotonicity(plan16):
    times = [
        _run(plan16, _scaled_cluster(f)).total_seconds for f in (0.5, 1.0, 4.0)
    ]
    assert times[0] > times[1] > times[2]


def test_bytes_transferred_matches_plan(matrix, plan16):
    cluster = westmere_cluster(4)
    for iterations in (1, 3):
        r = _run(plan16, cluster, iterations=iterations)
        assert r.bytes_transferred == pytest.approx(
            plan16.total_comm_bytes() * iterations
        )


def test_async_progress_never_hurts(matrix):
    cluster = westmere_cluster(4)
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        sync = simulate_spmvm(matrix, cluster, mode="per-ld", scheme=scheme,
                              kappa=2.5, eager_threshold=EAGER)
        asy = simulate_spmvm(matrix, cluster, mode="per-ld", scheme=scheme,
                             kappa=2.5, eager_threshold=EAGER, async_progress=True)
        # max-min fair sharing is not a globally optimal schedule, so tiny
        # (<0.5 %) reorderings of the straggler are possible; anything
        # larger would mean async progress genuinely hurt
        assert asy.total_seconds <= sync.total_seconds * 1.005, scheme


def test_larger_kappa_never_faster(matrix):
    cluster = westmere_cluster(2)
    t = [
        simulate_spmvm(matrix, cluster, mode="per-ld", scheme="no_overlap",
                       kappa=k, eager_threshold=EAGER).total_seconds
        for k in (0.0, 2.5, 5.0)
    ]
    assert t[0] < t[1] < t[2]


def test_iterations_scale_linearly(plan16):
    cluster = westmere_cluster(4)
    one = _run(plan16, cluster, iterations=1)
    three = _run(plan16, cluster, iterations=3)
    # steady state: per-iteration time identical within pipeline slack
    assert three.seconds_per_mvm == pytest.approx(one.seconds_per_mvm, rel=0.05)


def test_eager_threshold_extremes_bracket(matrix):
    # all-rendezvous is the slowest naive overlap, all-eager the fastest
    cluster = westmere_cluster(4)
    t = {
        eager: simulate_spmvm(matrix, cluster, mode="per-ld", scheme="naive_overlap",
                              kappa=2.5, eager_threshold=eager).total_seconds
        for eager in (0, 1024, 1 << 24)
    }
    assert t[1 << 24] <= t[1024] <= t[0] * 1.001
