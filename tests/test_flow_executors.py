"""The flow engine's two executors agree bit for bit.

:class:`repro.frame.FlowNetwork` is the definition, in Python; where the
library of :mod:`repro.sparse.native` loaded, ``FlowNetwork(...)``
returns its compiled twin instead.  Here both replay the same random
populations and event sequences — constant, saturating and zero
capacities, multipliers of 0, shares placed inside and just outside the
1e-12 tie band, degenerate sizes, starts, pauses, resumes, finishes —
and every scheduled delay, every flow's rate and bytes left after every
step, and every ``ResourceStats`` field must be the same ``float.hex``.
The definition is reached the way the row-sum tests reach numpy: with
the library's handle set to None.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import FlowNetwork
from repro.frame.resources import _LoggedSimulator
from repro.sparse import native
from tests.test_flow_filling import _CURVE, grouped_populations, populations

pytestmark = pytest.mark.skipif(
    not native.status().available, reason=f"no compiled executor: {native.status().reason}"
)


def _network(compiled: bool, sim, cap_fns):
    with pytest.MonkeyPatch.context() as mp:
        if not compiled:
            mp.setattr(native, "_flow", None)
        net = FlowNetwork(sim, dict(enumerate(cap_fns)))
    assert (type(net) is FlowNetwork) is not compiled
    return net


def _replay(compiled: bool, specs, cap_fns, steps) -> list:
    log: list = []
    sim = _LoggedSimulator(log)
    net = _network(compiled, sim, cap_fns)
    started = []

    def observe():
        log.append(sim.now.hex())
        log.extend((f.alive, f.paused, f.rate.hex(), f.remaining.hex()) for f in started)

    for kind, i, x in [("start", i, 10.0 * (i + 1)) for i in range(len(specs))] + steps:
        if kind == "start":
            weight, paused, edges = specs[i % len(specs)]
            started.append(net.start_flow(x, dict(edges), weight=weight, paused=paused))
        elif kind in ("pause", "resume") and i < len(started):
            getattr(net, kind)(started[i])
        sim.run(until=sim.now + (x if kind == "advance" else 0.0))
        observe()
    sim.run(until=sim.now + 1e3)
    observe()
    log.extend(
        (s.busy_seconds.hex(), s.bytes_moved.hex(), s.max_concurrent_flows, s.flows_started)
        for s in net.resource_stats().values()
    )
    return log


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.integers(0, 7),
                  st.one_of(st.floats(1.0, 50.0), st.just(1e-7))),
        st.tuples(st.sampled_from(["pause", "resume"]), st.integers(0, 9), st.just(0.0)),
        st.tuples(st.just("advance"), st.just(0), st.floats(0.0, 3.0)),
    ),
    max_size=30,
)


@st.composite
def stalling_populations(draw):
    """Zero capacities and zero multipliers: flows with no bottleneck, or
    frozen at rate 0."""
    nres = draw(st.integers(1, 4))
    cap_fns = [
        draw(st.sampled_from([lambda w: 0.0, lambda w: 5.0, _CURVE.value])) for _ in range(nres)
    ]
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        rids = draw(st.lists(st.integers(0, nres - 1), min_size=1, max_size=nres, unique=True))
        mults = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.7])
        weight = draw(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.5]))
        specs.append((weight, draw(st.booleans()) and draw(st.booleans()),
                      [(rid, draw(mults)) for rid in rids]))
    return specs, cap_fns


def _check(specs, cap_fns, steps):
    want = _replay(False, specs, cap_fns, steps)
    got = _replay(True, specs, cap_fns, steps)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(populations(), _STEPS)
def test_executors_agree_on_random_populations(population, steps):
    _check(*population, steps)


@settings(max_examples=200, deadline=None)
@given(grouped_populations(), _STEPS)
def test_executors_agree_across_near_tied_components(population, steps):
    specs, cap_fns = population
    _check([spec[1:] for spec in specs], cap_fns, steps)


@settings(max_examples=200, deadline=None)
@given(stalling_populations(), _STEPS)
def test_executors_agree_on_stalls_and_zero_multipliers(population, steps):
    _check(*population, steps)


def test_the_definition_replays_the_load_time_probe_as_the_library_does():
    from repro.frame.resources import replay_mismatch

    assert replay_mismatch(native._flow) is None


def test_many_flows_and_wide_demands_grow_the_arrays():
    """Past the first allocation of slots and of edges per slot, with
    flows finishing and slots reused."""
    caps = [(lambda w, c=c: c) for c in (3.0, 7.0, 11.0)] + [_CURVE.value] * 9
    specs = [(0.5 + 0.1 * (i % 7), i % 11 == 0, [(r, 1.0 + 0.25 * ((i + r) % 3))
             for r in range(i % 12, i % 12 + 1 + i % 9) if r < 12]) for i in range(120)]
    steps = [("advance", 0, 0.7), ("start", 3, 5.0), ("resume", 0, 0.0), ("advance", 0, 40.0)]
    _check(specs, caps, steps)
