"""The flow engine's rates against the textbook progressive filling.

:class:`repro.frame.FlowNetwork` fills with a heap of per-resource fair
shares and recomputes only the shares a filling round touched.  The
reference here is the definition: every round rescans all unfrozen
flows, takes the smallest fair share over all resources, and freezes
every flow on a resource within a relative 1e-12 of it.  On random
populations — constant and saturation-curve capacities, weights,
demand multipliers, paused flows, and shares placed inside and just
outside that tie band — the two must give the same rates bit for bit,
and the rates must be max-min fair.  They must stay identical while
flows start, pause, resume and finish, since the engine only re-sums
the resources those flows touch and refills only their component of the
flow–resource graph.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Flow, FlowNetwork, Simulator
from repro.model import SaturationCurve

TIE_BAND = 1e-12
#: Relative slack of the fairness check: the tie band, plus rounding of
#: the sums of a handful of terms.
FAIR_RTOL = TIE_BAND + 1e-14

_CURVE = SaturationCurve.from_table({1: 10.0, 2: 17.0, 3: 21.0, 4: 22.5})


def reference_rates(flows, cap_fns):
    """Round-by-round progressive filling over all unfrozen flows.

    *flows* is a list of ``(weight, paused, edges)`` with ``edges`` a
    list of ``(resource, multiplier)``; every sum runs in flow order,
    then edge order.
    """
    rate = [0.0 if paused else -1.0 for _w, paused, _e in flows]
    weight_on: dict[int, float] = {}
    for (w, paused, edges) in flows:
        if not paused:
            for rid, _m in edges:
                weight_on[rid] = weight_on.get(rid, 0.0) + w
    cap = {rid: max(0.0, float(cap_fns[rid](won))) for rid, won in weight_on.items()}
    consumed = dict.fromkeys(cap, 0.0)
    while any(r < 0 for r in rate):
        denom: dict[int, float] = {}
        for i, (w, _p, edges) in enumerate(flows):
            if rate[i] < 0:
                for rid, m in edges:
                    denom[rid] = denom.get(rid, 0.0) + w * m
        share = {
            rid: max(0.0, cap[rid] - consumed[rid]) / d for rid, d in denom.items() if d > 0
        }
        if not share:
            break
        s_min = min(share.values())
        if not math.isfinite(s_min):
            break
        bottleneck = {rid for rid, s in share.items() if s <= s_min * (1.0 + TIE_BAND)}
        frozen = [
            i for i, (_w, _p, edges) in enumerate(flows)
            if rate[i] < 0 and any(rid in bottleneck for rid, _m in edges)
        ]
        for i in frozen:
            rate[i] = flows[i][0] * s_min
        for i in frozen:
            for rid, m in flows[i][2]:
                consumed[rid] += rate[i] * m
    return [max(r, 0.0) for r in rate]


def engine_rates(flows, cap_fns):
    """Rates the engine assigns to the population at time 0."""
    sim = Simulator()
    net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    handles = [
        net.start_flow(1e12, dict(edges), weight=w, paused=paused)
        for w, paused, edges in flows
    ]
    sim.run(until=0.0)
    return [f.rate for f in handles]


@st.composite
def populations(draw):
    nres = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["const", "curve"]), min_size=nres, max_size=nres))
    caps = [draw(st.floats(1.0, 100.0)) for _ in range(nres)]
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        rids = draw(st.lists(st.integers(0, nres - 1), min_size=1, max_size=nres, unique=True))
        mults = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.25, 4.0))
        edges = [(rid, draw(mults)) for rid in rids]
        weight = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 4.0)))
        flows.append((weight, draw(st.booleans()) and draw(st.booleans()), edges))
    # put two constant resources' first-round shares a hair apart, inside
    # or just outside the tie band
    denom: dict[int, float] = {}
    for w, paused, edges in flows:
        if not paused:
            for rid, m in edges:
                denom[rid] = denom.get(rid, 0.0) + w * m
    const = [rid for rid in sorted(denom) if kinds[rid] == "const"]
    if len(const) >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(const))[:2]
        delta = draw(st.sampled_from([0.0, 1e-13, 5e-13, 9.9e-13, 1e-12, 1.01e-12, 3e-12]))
        caps[b] = caps[a] / denom[a] * (1.0 + delta) * denom[b]
    cap_fns = [
        _CURVE.value if kind == "curve" else (lambda w, c=c: c)
        for kind, c in zip(kinds, caps)
    ]
    return flows, cap_fns


@settings(max_examples=300, deadline=None)
@given(populations())
def test_heap_filling_matches_the_round_by_round_reference(population):
    flows, cap_fns = population
    assert engine_rates(flows, cap_fns) == reference_rates(flows, cap_fns)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.integers(0, 7), st.floats(1.0, 50.0)),
        st.tuples(st.sampled_from(["pause", "resume"]), st.integers(0, 7), st.just(0.0)),
        st.tuples(st.just("advance"), st.just(0), st.floats(0.01, 3.0)),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(populations(), _STEPS)
def test_rates_stay_exact_as_flows_come_and_go(population, steps):
    """After every start / pause / resume / stretch of time (in which
    flows finish), the live flows' rates equal the reference's."""
    specs, cap_fns = population
    sim = Simulator()
    net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    started = []  # (handle, spec) in start order
    for kind, i, x in [("start", i, 10.0 * (i + 1)) for i in range(len(specs))] + steps:
        spec = specs[i % len(specs)]
        if kind == "start":
            w, paused, edges = spec
            started.append((net.start_flow(x, dict(edges), weight=w, paused=paused), spec))
        elif kind in ("pause", "resume") and i < len(started):
            getattr(net, kind)(started[i][0])
        sim.run(until=sim.now + (x if kind == "advance" else 0.0))
        live = [(h, spec) for h, spec in started if h.alive]
        assert [h.rate for h, _ in live] == reference_rates(
            [(w, h.paused, edges) for h, (w, _p, edges) in live], cap_fns
        )
        assert all(h.rate == 0.0 for h, _ in started if not h.alive)


@settings(max_examples=300, deadline=None)
@given(populations())
def test_rates_are_max_min_fair(population):
    flows, cap_fns = population
    rates = engine_rates(flows, cap_fns)
    runnable = [i for i, (_w, paused, _e) in enumerate(flows) if not paused]
    users: dict[int, list[int]] = {}
    for i in runnable:
        for rid, _m in flows[i][2]:
            users.setdefault(rid, []).append(i)
    weight_on = {rid: sum(flows[i][0] for i in us) for rid, us in users.items()}
    load = {
        rid: sum(rates[i] * dict(flows[i][2])[rid] for i in us) for rid, us in users.items()
    }
    cap = {rid: max(0.0, float(cap_fns[rid](weight_on[rid]))) for rid in users}
    for i, (_w, paused, _e) in enumerate(flows):
        if paused:
            assert rates[i] == 0.0
    for i in runnable:
        w, _p, edges = flows[i]
        per_weight = rates[i] / w
        for rid, _m in edges:
            assert load[rid] <= cap[rid] * (1.0 + FAIR_RTOL)
        assert any(
            load[rid] >= cap[rid] * (1.0 - FAIR_RTOL)
            and all(rates[j] / flows[j][0] <= per_weight * (1.0 + FAIR_RTOL) for j in users[rid])
            for rid, _m in edges
        ), f"flow {i} has no saturated bottleneck on which it is the largest"


# -- disjoint resource groups ------------------------------------------
#
# A change refills only the connected component of the flow–resource
# graph that it touches.  Groups of resources no flow crosses are such
# components; the tie band still couples them when two of their shares
# land a hair apart, and the engine must then match the full filling.

_CROSS_GROUP_DELTAS = [0.0, 1e-13, 9.9e-13, 1e-12, 1.01e-12]


@st.composite
def grouped_populations(draw):
    """Flows in 2-4 groups of resources, each flow inside one group,
    with the first-round shares of two groups' constant resources placed
    0 to 1.01e-12 apart."""
    kinds, caps, group_of = [], [], []
    flows = []  # (group, weight, paused, edges)
    for g in range(draw(st.integers(2, 4))):
        base = len(caps)
        nres = draw(st.integers(1, 2))
        for _ in range(nres):
            kinds.append(draw(st.sampled_from(["const", "curve"])))
            caps.append(draw(st.floats(1.0, 100.0)))
            group_of.append(g)
        for _ in range(draw(st.integers(1, 3))):
            rids = draw(st.lists(
                st.integers(base, base + nres - 1), min_size=1, max_size=nres, unique=True))
            mults = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.25, 4.0))
            weight = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 4.0)))
            paused = draw(st.booleans()) and draw(st.booleans())
            flows.append((g, weight, paused, [(rid, draw(mults)) for rid in rids]))
    denom: dict[int, float] = {}
    for _g, w, paused, edges in flows:
        if not paused:
            for rid, m in edges:
                denom[rid] = denom.get(rid, 0.0) + w * m
    const = [rid for rid in sorted(denom) if kinds[rid] == "const"]
    pairs = [(a, b) for a in const for b in const if group_of[a] != group_of[b]]
    if pairs:
        a, b = draw(st.sampled_from(pairs))
        delta = draw(st.sampled_from(_CROSS_GROUP_DELTAS))
        caps[b] = caps[a] / denom[a] * (1.0 + delta) * denom[b]
    cap_fns = [
        _CURVE.value if kind == "curve" else (lambda w, c=c: c)
        for kind, c in zip(kinds, caps)
    ]
    return flows, cap_fns


def _assert_live_rates_exact(started, cap_fns):
    live = [(h, spec) for h, spec in started if h.alive]
    assert [h.rate for h, _ in live] == reference_rates(
        [(w, h.paused, edges) for h, (_g, w, _p, edges) in live], cap_fns
    )
    assert all(h.rate == 0.0 for h, _ in started if not h.alive)


@settings(max_examples=200, deadline=None)
@given(grouped_populations(), st.data())
def test_changes_in_one_group_keep_every_rate_exact(population, data):
    """Flows of one group start, pause, resume and finish while the
    other groups' flows stand still; after every step all live rates
    equal the full filling's.  The first flows start one recomputation
    each, or all before one, which then spans every group."""
    specs, cap_fns = population
    active = data.draw(st.sampled_from(sorted({g for g, *_ in specs})))
    together = data.draw(st.booleans())
    mine = [spec for spec in specs if spec[0] == active]
    sim = Simulator()
    net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    started = []  # (handle, spec) in start order
    for spec in specs:
        g, w, paused, edges = spec
        size = 10.0 * (len(started) + 1) if g == active else 1e12
        started.append((net.start_flow(size, dict(edges), weight=w, paused=paused), spec))
        if not together:
            sim.run(until=sim.now)  # one recomputation per start
            _assert_live_rates_exact(started, cap_fns)
    sim.run(until=sim.now)
    _assert_live_rates_exact(started, cap_fns)
    handles = [h for h, spec in started if spec[0] == active]
    for kind, i, x in data.draw(_STEPS):
        if kind == "start":
            spec = mine[i % len(mine)]
            _g, w, paused, edges = spec
            handles.append(net.start_flow(x, dict(edges), weight=w, paused=paused))
            started.append((handles[-1], spec))
        elif kind in ("pause", "resume") and i < len(handles):
            getattr(net, kind)(handles[i])
        sim.run(until=sim.now + (x if kind == "advance" else 0.0))
        _assert_live_rates_exact(started, cap_fns)


@pytest.mark.parametrize("delta", _CROSS_GROUP_DELTAS)
@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("together", [False, True])
def test_a_near_tie_across_groups_is_the_full_fillings(delta, side, together):
    """A standing flow at share 1 and a short one at share 1 ± delta on
    a disjoint resource, started one recomputation each or both before
    one: while both run, and after the short one finished alone, the
    rates are the full filling's."""
    cap_fns = [lambda w: 1.0, lambda w, c=1.0 + side * delta: c]
    specs = [(0, 1.0, False, [(0, 1.0)]), (1, 1.0, False, [(1, 1.0)])]
    sim = Simulator()
    net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    started = [(net.start_flow(1e12, {0: 1.0}), specs[0])]
    if not together:
        sim.run(until=0.0)
    started.append((net.start_flow(1.0, {1: 1.0}), specs[1]))
    sim.run(until=0.0)
    _assert_live_rates_exact(started, cap_fns)
    sim.run(until=2.0)
    assert not started[1][0].alive
    _assert_live_rates_exact(started, cap_fns)
    assert started[0][0].rate == 1.0


def test_a_lone_finish_refills_no_flow_of_another_group(monkeypatch):
    """The flow engine writes no rate of a group that a flow finishing
    alone on its own resource cannot reach (a test-side wrapper around
    the ``rate`` slot counts the writes)."""
    slot = Flow.__dict__["rate"]
    writes: dict[str, int] = {}

    def set_rate(flow, value):
        writes[flow.label] = writes.get(flow.label, 0) + 1
        slot.__set__(flow, value)

    monkeypatch.setattr(Flow, "rate", property(lambda flow: slot.__get__(flow, Flow), set_rate))
    cap_fns = [lambda w: 3.0, _CURVE.value, lambda w: 7.0]
    sim = Simulator()
    net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    standing = [
        net.start_flow(1e12, {0: 1.0}, label="a"),
        net.start_flow(1e12, {0: 2.0, 1: 1.0}, weight=0.5, label="b"),
        net.start_flow(1e12, {1: 1.0}, label="c"),
    ]
    sim.run(until=0.0)
    rates = [f.rate for f in standing]
    writes.clear()
    lone = net.start_flow(7.0, {2: 1.0}, label="lone")
    sim.run(until=0.5)
    assert set(writes) == {"lone"}
    sim.run(until=2.0)
    assert not lone.alive
    assert set(writes) == {"lone"}
    assert [f.rate for f in standing] == rates
