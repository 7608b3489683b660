"""Simulation kernel: events, processes, flow network, tracing."""

import numpy as np
import pytest

from repro.frame import FlowNetwork, Simulator, TraceRecorder, all_of


# ----------------------------------------------------------------------
# events & processes
# ----------------------------------------------------------------------
def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.result == 2.5
    assert sim.now == 2.5


def test_events_fire_once():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered and ev.value == 42
    with pytest.raises(RuntimeError, match="twice"):
        ev.succeed()


def test_callback_after_trigger_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    got = []
    ev.add_callback(got.append)
    assert got == ["x"]


def test_all_of():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    both = all_of([a, b])
    b.succeed(2)
    assert not both.triggered
    a.succeed(1)
    assert both.triggered and both.value == [1, 2]
    assert all_of([]).triggered


def test_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        log.append((name, sim.now))
        yield sim.timeout(delay)
        log.append((name, sim.now))

    sim.spawn(worker(sim, "a", 1.0))
    sim.spawn(worker(sim, "b", 1.5))
    sim.run()
    assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]


def test_process_join_via_done_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return "payload"

    def parent(sim):
        c = sim.spawn(child(sim))
        value = yield c.done
        return (value, sim.now)

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.result == ("payload", 1.0)


def test_run_until():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.spawn(proc(sim))
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_scheduling_into_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="past"):
        sim.schedule(-1.0, lambda: None)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(TypeError, match="must yield SimEvent"):
        sim.run()


# ----------------------------------------------------------------------
# flow network
# ----------------------------------------------------------------------
def _finish_time(size, demands, capacities, **kw):
    sim = Simulator()
    net = FlowNetwork(sim, capacities)
    f = net.start_flow(size, demands, **kw)
    out = {}
    f.done.add_callback(lambda _f: out.setdefault("t", sim.now))
    sim.run()
    return out["t"]


def test_single_flow_rate():
    assert _finish_time(100.0, {"r": 1.0}, {"r": lambda w: 10.0}) == pytest.approx(10.0)


def test_fair_sharing_constant_capacity():
    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: 10.0})
    f1 = net.start_flow(100.0, {"r": 1.0})
    f2 = net.start_flow(50.0, {"r": 1.0})
    times = {}
    f1.done.add_callback(lambda _f: times.setdefault(1, sim.now))
    f2.done.add_callback(lambda _f: times.setdefault(2, sim.now))
    sim.run()
    # f2 finishes at t=10 (5 B/s each); f1 then speeds up: 50 left at 10 B/s
    assert times[2] == pytest.approx(10.0)
    assert times[1] == pytest.approx(15.0)


def test_saturation_curve_capacity():
    # capacity grows with active weight: 2 flows see 2x capacity of 1
    t_two = None
    sim = Simulator()
    net = FlowNetwork(sim, {"bus": lambda w: 5.0 * min(w, 2.0)})
    f1 = net.start_flow(50.0, {"bus": 1.0})
    f2 = net.start_flow(50.0, {"bus": 1.0})
    done = []
    f1.done.add_callback(lambda _f: done.append(sim.now))
    f2.done.add_callback(lambda _f: done.append(sim.now))
    sim.run()
    assert done == [10.0, 10.0]  # each gets 10/2 = 5 B/s


def test_weighted_sharing():
    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: 12.0})
    heavy = net.start_flow(80.0, {"r": 1.0}, weight=2.0)
    light = net.start_flow(40.0, {"r": 1.0}, weight=1.0)
    times = {}
    heavy.done.add_callback(lambda _f: times.setdefault("h", sim.now))
    light.done.add_callback(lambda _f: times.setdefault("l", sim.now))
    sim.run()
    # rates 8 and 4 -> both finish at t=10
    assert times["h"] == pytest.approx(10.0)
    assert times["l"] == pytest.approx(10.0)


def test_multi_resource_bottleneck():
    # flow A runs through r1 (cap 4) and r2 (cap 100): r1 binds
    assert _finish_time(40.0, {"r1": 1.0, "r2": 1.0}, {"r1": lambda w: 4.0, "r2": lambda w: 100.0}) == pytest.approx(10.0)


def test_demand_multiplier():
    # multiplier 4 on a 20 B/s pipe -> effective 5 B/s
    assert _finish_time(50.0, {"r": 4.0}, {"r": lambda w: 20.0}) == pytest.approx(10.0)


def test_pause_resume():
    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: 10.0})
    f = net.start_flow(100.0, {"r": 1.0}, paused=True)
    times = {}
    f.done.add_callback(lambda _f: times.setdefault("t", sim.now))

    def controller(sim):
        yield sim.timeout(3.0)
        net.resume(f)
        yield sim.timeout(2.0)
        net.pause(f)
        yield sim.timeout(5.0)
        net.resume(f)

    sim.spawn(controller(sim))
    sim.run()
    # 3s paused + 2s running (20 B) + 5s paused + 8s running (80 B) = 18
    assert times["t"] == pytest.approx(18.0)


def test_zero_size_flow_completes():
    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: 10.0})
    f = net.start_flow(0.0, {"r": 1.0})
    sim.run()
    assert f.done.triggered


def test_flow_validation():
    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: 10.0})
    with pytest.raises(ValueError, match="size"):
        net.start_flow(-1.0, {"r": 1.0})
    with pytest.raises(ValueError, match="resource demand"):
        net.start_flow(1.0, {})
    with pytest.raises(KeyError):
        net.start_flow(1.0, {"unknown": 1.0})
    with pytest.raises(ValueError, match="weight"):
        net.start_flow(1.0, {"r": 1.0}, weight=0.0)
    with pytest.raises(ValueError, match="multipliers"):
        net.start_flow(1.0, {"r": -1.0})


def test_mass_conservation_many_flows(rng):
    # total bytes delivered equals total bytes requested
    sim = Simulator()
    net = FlowNetwork(sim, {i: (lambda w: 7.0) for i in range(5)})
    sizes = rng.uniform(1.0, 50.0, size=40)
    done = []
    for s in sizes:
        f = net.start_flow(float(s), {int(rng.integers(5)): 1.0})
        f.done.add_callback(lambda _f: done.append(sim.now))
    sim.run()
    assert len(done) == 40
    # the last completion cannot beat the aggregate-capacity bound
    assert max(done) >= sizes.sum() / (5 * 7.0) - 1e-9


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def test_trace_recorder():
    tr = TraceRecorder()
    tr.record("a", "work", 0.0, 1.0)
    tr.record("a", "wait", 1.0, 3.0)
    tr.record("b", "work", 0.5, 2.0)
    assert tr.actors() == ["a", "b"]
    assert sum(s.duration for s in tr.spans if s.actor == "a") == pytest.approx(3.0)
    assert tr.makespan() == 3.0
    gantt = tr.render_gantt(width=40, title="t")
    assert gantt.startswith("t")
    assert "a |" in gantt and "b |" in gantt


def test_trace_rejects_negative_interval():
    tr = TraceRecorder()
    with pytest.raises(ValueError):
        tr.record("a", "x", 2.0, 1.0)


def _simulated_sweep(hmep_tiny, trace):
    from repro.core import simulate_spmvm
    from repro.machine import westmere_cluster

    return simulate_spmvm(hmep_tiny, westmere_cluster(1), scheme="task_mode", trace=trace)


def test_trace_disabled(hmep_tiny):
    # the one off switch: an untraced run hands the simulator no recorder
    assert _simulated_sweep(hmep_tiny, trace=False).trace is None
    assert TraceRecorder().render_gantt() == "(empty trace)"


def test_gantt_cycles_letters_beyond_pool():
    """Regression: >36 distinct labels used to walk off the alphabet into
    punctuation; the letter pool must cycle instead."""
    tr = TraceRecorder()
    n_labels = 80
    for i in range(n_labels):
        tr.record("actor", f"label-{i}", float(i), float(i + 1))
    chart = tr.render_gantt(width=100)
    lines = chart.splitlines()
    row = next(line for line in lines if line.startswith("actor |"))
    body = row.split("|")[1]
    assert all(c.isalnum() or c == " " for c in body)
    # the legend still lists every distinct label
    assert sum(1 for line in lines if line.lstrip().startswith(tuple("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")) and " = label-" in line) == n_labels


def test_trace_events_emit_and_query():
    tr = TraceRecorder()
    tr.record("rank0", "gather", 1.0, 2.0, op="PACK")
    tr.emit(2.5, "rank0", "gate_close", rank=0)
    tr.emit(0.5, "rank1", "gate_open", rank=1)
    assert len(tr.events) == 2
    assert [ev.name for ev in tr.iter_events()] == ["gate_open", "gate_close"]
    assert tr.phase_windows("gather") == [(1.0, 2.0)]
    assert tr.phase_windows("gather", actor="rank1") == []
    assert tr.spans[0].args == {"op": "PACK"}
    assert next(tr.iter_events()).args["rank"] == 1
    assert tr.makespan() == 2.5


def test_trace_events_disabled(hmep_tiny):
    # the recorder only watches: tracing on or off, the run is the same
    off = _simulated_sweep(hmep_tiny, trace=False)
    on = _simulated_sweep(hmep_tiny, trace=True)
    assert on.trace.events and on.trace.spans
    assert on.total_seconds == off.total_seconds


def test_flow_network_resource_stats():
    sim = Simulator()
    net = FlowNetwork(sim, {"bus": lambda w: 10.0, "idle": lambda w: 5.0})
    f1 = net.start_flow(100.0, {"bus": 1.0}, label="a")
    f2 = net.start_flow(100.0, {"bus": 1.0}, label="b")
    sim.run()
    assert f1.done.triggered and f2.done.triggered
    stats = net.resource_stats()
    # two flows share 10 B/s -> 200 B total take 20 s, bus busy throughout
    assert stats["bus"].bytes_moved == pytest.approx(200.0)
    assert stats["bus"].busy_seconds == pytest.approx(20.0)
    assert stats["bus"].max_concurrent_flows == 2
    assert stats["bus"].flows_started == 2
    assert stats["bus"].busy_fraction(20.0) == pytest.approx(1.0)
    assert stats["idle"].bytes_moved == 0.0
    assert stats["idle"].busy_seconds == 0.0
    assert stats["idle"].max_concurrent_flows == 0


def test_resource_stats_demand_multiplier_counts_weighted_bytes():
    sim = Simulator()
    net = FlowNetwork(sim, {"pool": lambda w: 30.0})
    # 3-hop message: demand multiplier 3 on the link pool
    net.start_flow(90.0, {"pool": 3.0}, label="hop3")
    sim.run()
    stats = net.resource_stats()
    assert stats["pool"].bytes_moved == pytest.approx(270.0)
    # rate = 30/3 = 10 B/s -> 9 s busy
    assert stats["pool"].busy_seconds == pytest.approx(9.0)


def test_resource_stats_paused_flow_accrues_nothing():
    sim = Simulator()
    net = FlowNetwork(sim, {"bus": lambda w: 10.0})
    f = net.start_flow(50.0, {"bus": 1.0}, paused=True, label="gated")
    sim.schedule(4.0, lambda: net.resume(f))
    sim.run()
    stats = net.resource_stats()
    assert stats["bus"].bytes_moved == pytest.approx(50.0)
    # busy only during the 5 s of actual transfer, not the 4 s gate
    assert stats["bus"].busy_seconds == pytest.approx(5.0)


# ----------------------------------------------------------------------
# non-finite inputs are rejected where they enter, not simulated forever
# ----------------------------------------------------------------------
def _start(**kwargs):
    def call():
        net = FlowNetwork(Simulator(), {"r": lambda w: 1.0})
        args = {"size": 1.0, "demands": {"r": 1.0}} | kwargs
        net.start_flow(args.pop("size"), args.pop("demands"), **args)
    return call


def _phase_costs(kappa):
    def call():
        from repro.core import build_halo_plan, phase_costs
        from repro.matrices import random_sparse
        from repro.sparse import partition_matrix

        A = random_sparse(40, nnzr=4, seed=1)
        halo = build_halo_plan(A, partition_matrix(A, 2), with_matrices=False).ranks[0]
        phase_costs(halo, kappa)
    return call


@pytest.mark.parametrize("call, message", [
    pytest.param(_phase_costs(float("nan")), "kappa .* got nan", id="kappa-nan"),
    pytest.param(_phase_costs(float("inf")), "kappa .* got inf", id="kappa-inf"),
    pytest.param(_start(size=float("nan")), "size .* got nan", id="size-nan"),
    pytest.param(_start(size=float("inf")), "size .* got inf", id="size-inf"),
    pytest.param(_start(weight=float("nan")), "weight .* got nan", id="weight-nan"),
    pytest.param(_start(weight=float("inf")), "weight .* got inf", id="weight-inf"),
    pytest.param(_start(demands={"r": float("nan")}), "multipliers .* nan", id="mult-nan"),
    pytest.param(_start(demands={"r": float("inf")}), "multipliers .* inf", id="mult-inf"),
    pytest.param(lambda: Simulator().schedule(float("nan"), lambda: None), "delay .* got nan",
                 id="delay-nan"),
    pytest.param(lambda: Simulator().schedule(float("inf"), lambda: None), "delay .* got inf",
                 id="delay-inf"),
])
def test_non_finite_inputs_are_rejected_at_their_boundary(call, message):
    with pytest.raises(ValueError, match=message):
        call()
