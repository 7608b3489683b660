"""Machine layer: topologies, presets, placements, networks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine import (
    FatTree,
    Torus2D,
    cray_xe6_cluster,
    magny_cours_node,
    nehalem_ep_node,
    plan_placement,
    ranks_for_mode,
    render_node_ascii,
    westmere_cluster,
    westmere_ep_node,
)


# ----------------------------------------------------------------------
# topologies / presets
# ----------------------------------------------------------------------
def test_westmere_node_shape():
    n = westmere_ep_node()
    assert n.n_domains == 2
    assert n.n_cores == 12
    assert n.cores_per_domain() == 6
    assert n.smt_per_core == 2


def test_magny_cours_node_shape():
    n = magny_cours_node()
    assert n.n_domains == 4  # the paper's headline feature (Fig. 2b)
    assert n.n_cores == 24
    assert n.smt_per_core == 1


def test_nehalem_calibration_numbers():
    n = nehalem_ep_node()
    dom = n.domains[0]
    assert dom.stream_curve.saturated == pytest.approx(21.2e9)
    assert dom.spmv_curve.saturated == pytest.approx(18.11e9, rel=1e-3)


def test_amd_node_bandwidth_advantage():
    # paper: "a theoretical main memory bandwidth advantage of 8/6"
    w = westmere_ep_node()
    m = magny_cours_node()
    ratio = m.stream_bandwidth / w.stream_bandwidth
    assert 1.1 < ratio < 8 / 6 + 0.05


def test_spmv_reaches_85_percent_of_stream():
    for node in (nehalem_ep_node(), westmere_ep_node(), magny_cours_node()):
        dom = node.domains[0]
        assert dom.spmv_bandwidth / dom.stream_bandwidth >= 0.85


def test_render_node_ascii():
    text = render_node_ascii(westmere_ep_node())
    assert "socket 0" in text and "socket 1" in text
    assert "NIC" in text


def test_cluster_spec():
    cl = westmere_cluster(8)
    assert cl.n_nodes * cl.node.n_cores == 96
    assert cl.n_nodes * cl.node.n_domains == 16


# ----------------------------------------------------------------------
# placements
# ----------------------------------------------------------------------
def test_ranks_for_mode():
    cl = westmere_cluster(4)
    assert ranks_for_mode(cl, "per-core") == 48
    assert ranks_for_mode(cl, "per-ld") == 8
    assert ranks_for_mode(cl, "per-node") == 4
    with pytest.raises(ValueError):
        ranks_for_mode(cl, "per-rack")


def test_placement_per_ld_task_mode_dedicated():
    cl = westmere_cluster(2)
    pl = plan_placement(cl, "per-ld", comm_thread="dedicated")
    assert len(pl) == 4
    assert all(p.n_compute_threads == 5 for p in pl)  # one core sacrificed
    assert all(p.comm_dedicated for p in pl)


def test_placement_per_ld_task_mode_smt():
    cl = westmere_cluster(2)
    pl = plan_placement(cl, "per-ld", comm_thread="smt")
    assert all(p.n_compute_threads == 6 for p in pl)  # virtual core is free
    assert all(not p.comm_dedicated for p in pl)


def test_placement_smt_requires_smt_hardware():
    cl = cray_xe6_cluster(1)
    with pytest.raises(ValueError, match="no SMT"):
        plan_placement(cl, "per-ld", comm_thread="smt")


def test_placement_per_node_spans_domains():
    cl = westmere_cluster(1)
    pl = plan_placement(cl, "per-node")
    assert len(pl) == 1
    assert len(pl[0].domains) == 2
    assert pl[0].n_compute_threads == 12


def test_placement_per_core_single_thread():
    cl = westmere_cluster(1)
    pl = plan_placement(cl, "per-core", comm_thread="smt")
    assert len(pl) == 12
    assert all(p.n_compute_threads == 1 for p in pl)
    assert all(p.comm_domain is not None for p in pl)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def test_fattree_routes():
    ft = FatTree(latency=1e-6, link_bandwidth=3e9)
    r = ft.route(1000, 0, 1)
    keys = dict(r.demands)
    assert keys[("nic_out", 0)] == 1000
    assert keys[("nic_in", 1)] == 1000
    intra = ft.route(1000, 2, 2)
    assert dict(intra.demands) == {("intra", 2): 1000.0}
    assert intra.latency < r.latency


def test_fattree_resources():
    ft = FatTree(latency=1e-6, link_bandwidth=3e9)
    res = ft.resources(3)
    assert res[("nic_out", 0)](1.0) == 3e9
    assert ("intra", 2) in res


def test_torus_hops_wraparound():
    t = Torus2D(latency=1e-6)
    t.resources(16)  # 4x4
    assert t.hops(0, 1, 16) == 1
    assert t.hops(0, 3, 16) == 1  # wraps around the x dimension
    assert t.hops(0, 15, 16) == 2  # (0,0) -> (3,3): 1+1 with wraps
    assert t.dims(16) == (4, 4)


def test_torus_demand_scales_with_hops():
    t = Torus2D(latency=1e-6)
    near = dict(t.route(1000, 0, 1, n_nodes=16).demands)[("torus_links",)]
    far = dict(t.route(1000, 0, 10, n_nodes=16).demands)[("torus_links",)]
    assert far > near


def test_torus_background_load_shrinks_pool():
    quiet = Torus2D(latency=1e-6, background_load=0.0)
    busy = Torus2D(latency=1e-6, background_load=0.5)
    pool_q = quiet.resources(16)[("torus_links",)](1.0)
    pool_b = busy.resources(16)[("torus_links",)](1.0)
    assert pool_b == pytest.approx(0.5 * pool_q)


def test_torus_bisection_scaling():
    t = Torus2D(latency=1e-6, background_load=0.0)
    pool_16 = t.resources(16)[("torus_links",)](1.0)
    pool_64 = t.resources(64)[("torus_links",)](1.0)
    # bisection grows with sqrt(N), not N
    assert pool_64 / pool_16 == pytest.approx(2.0)


def test_torus_route_requires_n_nodes():
    # routing on a torus depends on the machine size; passing it
    # explicitly (instead of caching it from resources()) means a route
    # can never silently use a stale node count
    t = Torus2D(latency=1e-6)
    with pytest.raises(ValueError, match="n_nodes"):
        t.route(10, 0, 1)
    # intra-node routes never touch the torus, so no size is needed
    assert dict(t.route(10, 3, 3).demands) == {("intra", 3): 10.0}


def test_message_overhead_adds_nic_demand():
    plain = Torus2D(latency=1e-6)
    limited = Torus2D(latency=1e-6, message_overhead=1e-6)
    base = dict(plain.route(1000, 0, 1, n_nodes=16).demands)
    loaded = dict(limited.route(1000, 0, 1, n_nodes=16).demands)
    # 1 us of NIC occupancy at 6 GB/s = 6000 extra bytes of demand per message
    assert loaded[("nic_out", 0)] == pytest.approx(base[("nic_out", 0)] + 6000.0)
    assert loaded[("nic_in", 1)] == pytest.approx(base[("nic_in", 1)] + 6000.0)
    # the shared link pool carries payload only
    assert loaded[("torus_links",)] == base[("torus_links",)]
    # intra-node transport is not message-rate limited
    assert dict(limited.route(1000, 2, 2).demands) == {("intra", 2): 1000.0}
    ft = FatTree(latency=1e-6, link_bandwidth=3e9, message_overhead=1e-6)
    d = dict(ft.route(1000, 0, 1).demands)
    assert d[("nic_out", 0)] == pytest.approx(1000.0 + 3000.0)
    with pytest.raises(ValueError, match="message_overhead"):
        Torus2D(latency=1e-6, message_overhead=-1.0)


@given(
    n_nodes=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
def test_torus_hops_symmetric_and_bounded(n_nodes, data):
    t = Torus2D(latency=1e-6)
    a = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    b = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
    w, h = t.dims(n_nodes)
    assert w * h >= n_nodes
    hops = t.hops(a, b, n_nodes)
    # wraparound symmetry: distance cannot depend on direction
    assert hops == t.hops(b, a, n_nodes)
    # dimension-ordered routing with wraps: at most half of each dimension
    assert 1 <= hops <= max(1, w // 2 + h // 2)


@given(n_nodes=st.integers(min_value=1, max_value=400),
       background=st.floats(min_value=0.0, max_value=0.9))
def test_torus_pool_matches_bisection_formula(n_nodes, background):
    t = Torus2D(latency=1e-6, link_bandwidth=5e9, background_load=background)
    pool = t.resources(n_nodes)[("torus_links",)](1.0)
    w, h = t.dims(n_nodes)
    assert pool == pytest.approx(4.0 * min(w, h) * 5e9 * (1.0 - background))
