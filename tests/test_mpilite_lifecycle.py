"""mpilite lifecycle: abort provenance, idle backoff, persistent worlds.

The bugfixes the solver service flushed out (ISSUE 7): blocked waits
must die fast and loudly when the world is torn down mid-request, and
an idle pool with an attached observer must not burn CPU spinning at
the observer's poll interval.
"""

import threading
import time

import numpy as np
import pytest

from repro.mpilite import World, WorldAbortedError, open_world, run_spmd
from repro.mpilite.comm import CollectiveState
from repro.mpilite.router import (
    OBSERVER_WAIT_SLICE_MAX,
    Router,
    observer_wait_slice,
)


# ----------------------------------------------------------------------
# abort: blocked waits wake immediately with provenance
# ----------------------------------------------------------------------
class TestAbort:
    def test_abort_wakes_blocked_receive_with_provenance(self):
        r = Router(2)
        errors = []

        def blocked():
            try:
                r.get(1, 0, tag=7, timeout=60.0)
            except WorldAbortedError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)  # let it block
        t0 = time.perf_counter()
        r.abort("worker pool shut down")
        t.join(5.0)
        assert not t.is_alive()
        assert time.perf_counter() - t0 < 1.0  # not the 60 s timeout
        (exc,) = errors
        # rank / peer / tag provenance plus the teardown reason
        assert "rank 1" in str(exc)
        assert "peer 0" in str(exc)
        assert "tag 7" in str(exc)
        assert "worker pool shut down" in str(exc)

    def test_operations_after_abort_raise(self):
        r = Router(2)
        r.abort("gone")
        with pytest.raises(WorldAbortedError, match="gone"):
            r.put(0, 1, 0, "x")
        with pytest.raises(WorldAbortedError, match="rank 1"):
            r.get(1, 0, 0)

    def test_abort_wakes_blocked_collective(self):
        cs = CollectiveState(2, timeout=60.0)
        errors = []

        def blocked():
            try:
                cs.exchange(0, 1, lambda vals: sum(vals.values()))
            except WorldAbortedError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        t0 = time.perf_counter()
        cs.abort("peer died")
        t.join(5.0)
        assert not t.is_alive()
        assert time.perf_counter() - t0 < 1.0
        (exc,) = errors
        assert "rank 0" in str(exc) and "peer died" in str(exc)

    def test_world_abort_fans_out_to_router_and_collectives(self):
        w = open_world(2)
        assert w.aborted is None
        w.abort("service closed")
        assert w.aborted == "service closed"
        with pytest.raises(WorldAbortedError):
            w.comms[0].send(np.ones(2), dest=1)
        with pytest.raises(WorldAbortedError):
            w.collectives.exchange(0, 1, lambda vals: 0)

    @pytest.mark.parametrize("blocked_in", ["recv", "barrier"])
    def test_failed_rank_aborts_run_spmd_and_takes_the_blame(self, blocked_in):
        # rank 1 dies before rank 0's blocking operation can complete;
        # pre-fix rank 0 waited out the 60 s timeout and was the one named
        def fn(comm):
            if comm.rank == 1:
                raise KeyError("rank 1's own bug")
            return comm.recv(1, tag=5) if blocked_in == "recv" else comm.barrier()

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"^rank 1 failed: KeyError") as err:
            run_spmd(2, fn)
        assert time.perf_counter() - t0 < 2.0
        assert isinstance(err.value.__cause__, KeyError)


# ----------------------------------------------------------------------
# persistent worlds
# ----------------------------------------------------------------------
class TestWorld:
    def test_world_serves_many_rounds_of_traffic(self):
        w = World(2)
        for i in range(5):
            w.comms[0].send(np.full(3, float(i)), dest=1, tag=i)
            got = w.comms[1].recv(source=0, tag=i)
            np.testing.assert_array_equal(got, np.full(3, float(i)))

    def test_world_wires_recorder_to_both_layers(self):
        from repro.check import CommRecorder

        rec = CommRecorder(2)
        w = World(2, recorder=rec)
        assert w.router.observer is rec
        assert w.collectives.observer is rec
        assert all(c._rec is rec for c in w.comms)

    def test_world_validates_nranks(self):
        with pytest.raises(ValueError, match="nranks"):
            World(0)


# ----------------------------------------------------------------------
# bounded backoff: observer-mode waits must not spin while idle
# ----------------------------------------------------------------------
class _CountingObserver:
    """Minimal observer interface that counts its wakeup probes."""

    poll_interval = 0.02

    def __init__(self):
        self.checks = 0

    def on_send(self, *a):
        pass

    def on_recv_blocked(self, *a):
        pass

    def on_recv_unblocked(self, *a):
        pass

    def on_recv_complete(self, *a):
        pass

    def on_collective_blocked(self, *a):
        pass

    def on_collective_unblocked(self, *a):
        pass

    def check_blocked(self, rank):
        self.checks += 1


class TestIdleBackoff:
    def test_wait_slice_doubles_and_saturates(self):
        obs = _CountingObserver()
        backoff = obs.poll_interval
        slices = []
        for _ in range(8):
            s, backoff = observer_wait_slice(obs, backoff, None)
            slices.append(s)
        assert slices[0] == pytest.approx(obs.poll_interval)
        assert all(b >= a for a, b in zip(slices, slices[1:]))
        assert slices[-1] == pytest.approx(OBSERVER_WAIT_SLICE_MAX)
        # the deadline caps the slice
        s, _ = observer_wait_slice(obs, 0.25, 0.01)
        assert s == pytest.approx(0.01)

    def test_blocked_receive_probes_are_bounded_not_polling(self):
        # a 0.6 s idle wait at poll_interval=0.02 would probe ~30 times;
        # with the bounded exponential backoff it must stay in the single
        # digits (0.02+0.04+0.08+0.16+0.25+0.25 > 0.6 after 6 probes)
        obs = _CountingObserver()
        r = Router(2)
        r.observer = obs

        def feed():
            time.sleep(0.6)
            r.put(0, 1, 0, "done")

        t = threading.Thread(target=feed)
        t.start()
        assert r.get(1, 0, 0, timeout=10.0) == "done"
        t.join()
        assert obs.checks <= 10

    def test_idle_pool_burns_no_measurable_cpu(self):
        # with *no* observer the waits are pure condition variables: an
        # idle world must cost (close to) zero process CPU
        w = open_world(2)
        results = []
        t = threading.Thread(
            target=lambda: results.append(w.comms[1].recv(source=0, tag=3))
        )
        t.start()
        time.sleep(0.05)  # ensure the receiver is parked
        cpu0 = time.process_time()
        time.sleep(0.5)
        idle_cpu = time.process_time() - cpu0
        w.comms[0].send(np.ones(1), dest=1, tag=3)
        t.join(5.0)
        assert results and np.all(results[0] == 1.0)
        assert idle_cpu < 0.05  # seconds of CPU per 0.5 s idle wall
