"""Simulated MPI: matching, protocols, and the progress-semantics model."""

import pytest

from repro.frame import FlowNetwork, Simulator, TraceRecorder
from repro.machine.network import FatTree, Route, Torus2D
from repro.smpi import MPIConfig, SimMPI


def _world(n_nodes=2, ranks_per_node=1, **cfg):
    sim = Simulator()
    icn = FatTree(latency=1e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(n_nodes))
    rank_node = [n for n in range(n_nodes) for _ in range(ranks_per_node)]
    mpi = SimMPI(sim, net, icn, rank_node, config=MPIConfig(**cfg))
    return sim, mpi


def test_send_recv_basic():
    sim, mpi = _world()
    done = {}

    def sender(sim):
        req = mpi.isend(0, 1, 1_000_000)
        yield from mpi.waitall(0, [req])
        done["send"] = sim.now

    def receiver(sim):
        req = mpi.irecv(1, 0, 1_000_000)
        yield from mpi.waitall(1, [req])
        done["recv"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    # 1 MB over 1 GB/s = 1 ms (+ latency)
    assert done["recv"] == pytest.approx(1e-3, rel=0.01)
    assert mpi.bytes_transferred == 1_000_000


def test_message_matching_by_tag():
    sim, mpi = _world()
    order = []

    def sender(sim):
        r1 = mpi.isend(0, 1, 100, tag=7)
        r2 = mpi.isend(0, 1, 100, tag=9)
        yield from mpi.waitall(0, [r1, r2])

    def receiver(sim):
        r9 = mpi.irecv(1, 0, 100, tag=9)
        r7 = mpi.irecv(1, 0, 100, tag=7)
        yield from mpi.waitall(1, [r9, r7])
        order.append("both")

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert order == ["both"]


def test_eager_send_completes_without_receiver():
    sim, mpi = _world()
    state = {}

    def sender(sim):
        req = mpi.isend(0, 1, 100)  # tiny: eager
        yield from mpi.waitall(0, [req])
        state["sent_at"] = sim.now

    sim.spawn(sender(sim))
    sim.run()
    assert "sent_at" in state  # no deadlock despite missing recv


def test_rendezvous_send_blocks_without_receiver():
    sim, mpi = _world()
    state = {"sent": False}

    def sender(sim):
        req = mpi.isend(0, 1, 10_000_000)  # rendezvous
        yield from mpi.waitall(0, [req])
        state["sent"] = True

    sim.spawn(sender(sim))
    sim.run()
    assert not state["sent"]  # unmatched rendezvous never completes


def test_late_recv_gets_eager_payload_after_wire_time():
    sim, mpi = _world()
    done = {}

    def sender(sim):
        req = mpi.isend(0, 1, 1000)  # eager
        yield from mpi.waitall(0, [req])

    def receiver(sim):
        yield sim.timeout(5e-3)  # post the recv long after the send
        req = mpi.irecv(1, 0, 1000)
        yield from mpi.waitall(1, [req])
        done["recv"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert done["recv"] == pytest.approx(5e-3, rel=0.01)


def _overlap_probe(nbytes, compute, async_progress):
    sim, mpi = _world(async_progress=async_progress)
    finish = {}

    def rank(me, peer):
        def proc(sim):
            s = mpi.isend(me, peer, nbytes, tag=me)
            r = mpi.irecv(me, peer, nbytes, tag=peer)
            yield sim.timeout(compute)
            yield from mpi.waitall(me, [s, r])
            finish[me] = sim.now

        return proc

    sim.spawn(rank(0, 1)(sim))
    sim.spawn(rank(1, 0)(sim))
    sim.run()
    return max(finish.values())


def test_no_async_progress_serializes():
    # the paper's headline observation: transfer only inside Waitall
    nbytes, compute = 5_000_000, 5e-3
    wire = nbytes / 1e9
    total = _overlap_probe(nbytes, compute, async_progress=False)
    assert total == pytest.approx(compute + wire, rel=0.02)


def test_async_progress_overlaps():
    nbytes, compute = 5_000_000, 5e-3
    wire = nbytes / 1e9
    total = _overlap_probe(nbytes, compute, async_progress=True)
    assert total == pytest.approx(max(compute, wire), rel=0.02)


def test_comm_thread_keeps_gate_open():
    # task mode: a second "thread" of the same rank sits in waitall
    sim, mpi = _world()
    nbytes, compute = 5_000_000, 5e-3
    wire = nbytes / 1e9
    finish = {}

    def rank(me, peer):
        def proc(sim):
            s = mpi.isend(me, peer, nbytes, tag=me)
            r = mpi.irecv(me, peer, nbytes, tag=peer)
            comm_done = sim.event()

            def comm_thread():
                yield from mpi.waitall(me, [s, r])
                comm_done.succeed()

            sim.spawn(comm_thread())
            yield sim.timeout(compute)
            yield comm_done
            finish[me] = sim.now

        return proc

    sim.spawn(rank(0, 1)(sim))
    sim.spawn(rank(1, 0)(sim))
    sim.run()
    assert max(finish.values()) == pytest.approx(max(compute, wire), rel=0.02)


def test_intranode_messages_use_shared_memory():
    sim, mpi = _world(n_nodes=1, ranks_per_node=2)
    done = {}

    def sender(sim):
        yield from mpi.waitall(0, [mpi.isend(0, 1, 5_000_000)])

    def receiver(sim):
        req = mpi.irecv(1, 0, 5_000_000)
        yield from mpi.waitall(1, [req])
        done["t"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    # 5 MB over the 5 GB/s intranode pipe = 1 ms
    assert done["t"] == pytest.approx(1e-3, rel=0.02)


def test_enter_exit_depth_tracking():
    from repro.frame import TraceRecorder

    _sim, mpi = _world()
    mpi.trace = TraceRecorder()

    def gates():
        return [ev.name for ev in mpi.trace.events if ev.name.startswith("gate_")]

    mpi.enter_mpi(0)
    mpi.enter_mpi(0)
    mpi.exit_mpi(0)
    assert gates() == ["gate_open"]  # nested: the gate stays open
    mpi.exit_mpi(0)
    assert gates() == ["gate_open", "gate_close"]
    with pytest.raises(RuntimeError, match="without matching"):
        mpi.exit_mpi(0)


def test_allreduce_time_scales_with_ranks():
    _sim2, mpi2 = _world(n_nodes=2)
    sim8 = Simulator()
    icn = FatTree(latency=1e-6, link_bandwidth=1e9)
    net8 = FlowNetwork(sim8, icn.resources(8))
    mpi8 = SimMPI(sim8, net8, icn, list(range(8)))
    assert mpi8.allreduce_time(8) > mpi2.allreduce_time(8)
    assert mpi2.allreduce_time(8) > 0


def test_torus_transfers_respect_link_pool():
    sim = Simulator()
    icn = Torus2D(latency=1e-6, link_bandwidth=1e9, background_load=0.0)
    net = FlowNetwork(sim, icn.resources(4))
    mpi = SimMPI(sim, net, icn, [0, 1, 2, 3])
    done = {}

    def sender(sim):
        yield from mpi.waitall(0, [mpi.isend(0, 3, 2_000_000)])

    def receiver(sim):
        req = mpi.irecv(3, 0, 2_000_000)
        yield from mpi.waitall(3, [req])
        done["t"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert done["t"] > 0


# ----------------------------------------------------------------------
# degenerate routes (allreduce hardening)
# ----------------------------------------------------------------------
class _LatencyOnlyIcn(FatTree):
    """Interconnect whose routes declare no bandwidth-limited resources."""

    def route(self, nbytes, src_node, dst_node, n_nodes=None):
        return Route(self.latency, ())


class _UnregisteredIcn(FatTree):
    """Interconnect whose probe route names a resource nobody registered."""

    def route(self, nbytes, src_node, dst_node, n_nodes=None):
        return Route(self.latency, ((("ghost", 0), float(nbytes)),))


def test_allreduce_degenerate_route_falls_back_to_latency():
    sim = Simulator()
    icn = _LatencyOnlyIcn(latency=2e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(2))
    mpi = SimMPI(sim, net, icn, [0, 1])
    with pytest.warns(RuntimeWarning, match="latency-only"):
        t = mpi.allreduce_time(8)
    # ceil(log2 2) = 1 round of pure latency
    assert t == pytest.approx(2e-6)


def test_allreduce_unregistered_resource_raises_descriptive_error():
    sim = Simulator()
    icn = _UnregisteredIcn(latency=1e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(2))
    mpi = SimMPI(sim, net, icn, [0, 1])
    with pytest.raises(RuntimeError, match="ghost"):
        mpi.allreduce_time(8)


def test_allreduce_single_rank_no_probe():
    sim = Simulator()
    icn = _LatencyOnlyIcn(latency=1e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(1))
    mpi = SimMPI(sim, net, icn, [0])
    # zero rounds: no warning path needs to fire, duration is 0
    assert mpi.allreduce_time(8) == 0.0


# ----------------------------------------------------------------------
# structured event stream
# ----------------------------------------------------------------------
def _traced_world(n_nodes=2, **cfg):
    sim = Simulator()
    icn = FatTree(latency=1e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(n_nodes))
    trace = TraceRecorder()
    mpi = SimMPI(sim, net, icn, list(range(n_nodes)), config=MPIConfig(**cfg),
                 trace=trace)
    return sim, mpi, trace


def _named(trace, name):
    """The trace's MPI instants called *name*, in time order."""
    return [ev for ev in trace.iter_events() if ev.name == name]


def test_trace_eager_message_lifecycle():
    sim, mpi, trace = _traced_world(eager_threshold=1 << 20)

    def sender(sim):
        req = mpi.isend(0, 1, 100)
        yield from mpi.waitall(0, [req])

    def receiver(sim):
        req = mpi.irecv(1, 0, 100)
        yield from mpi.waitall(1, [req])

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    names = [ev.name for ev in trace.iter_events()]
    assert names.count("msg_posted") == 2  # one send post, one recv post
    assert names.count("wire_started") == 1
    assert names.count("msg_completed") == 1
    started = _named(trace, "wire_started")[0]
    assert started.args["protocol"] == "eager"
    assert started.args["nbytes"] == 100
    completed = _named(trace, "msg_completed")[0]
    assert completed.args["mid"] == started.args["mid"]
    assert completed.args["transferred"] == 100


def test_trace_rendezvous_gating_events():
    """A rendezvous flow posted outside MPI starts gated and resumes when
    both endpoints block in Waitall."""
    sim, mpi, trace = _traced_world(eager_threshold=10, async_progress=False)

    def sender(sim):
        req = mpi.isend(0, 1, 100_000)
        yield sim.timeout(5e-6)  # compute outside MPI; gate closed
        yield from mpi.waitall(0, [req])

    def receiver(sim):
        req = mpi.irecv(1, 0, 100_000)
        yield sim.timeout(5e-6)
        yield from mpi.waitall(1, [req])

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    started = _named(trace, "wire_started")[0]
    assert started.args["protocol"] == "rendezvous"
    assert started.args["paused"] is True
    resumed = _named(trace, "msg_resumed")
    assert resumed and resumed[0].time >= 5e-6
    gates = [ev.name for ev in trace.iter_events()
             if ev.name in ("gate_open", "gate_close")]
    assert gates.count("gate_open") == gates.count("gate_close")


def test_trace_disabled_by_default():
    sim, mpi = _world()

    def sender(sim):
        req = mpi.isend(0, 1, 100)
        yield from mpi.waitall(0, [req])

    def receiver(sim):
        req = mpi.irecv(1, 0, 100)
        yield from mpi.waitall(1, [req])

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()  # no recorder attached; nothing should blow up
    assert mpi.bytes_transferred == 100
