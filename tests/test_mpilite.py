"""mpilite runtime: router, point-to-point, collectives, SPMD launcher."""

import time

import numpy as np
import pytest

from repro.mpilite import PerRank, Router, run_spmd
from repro.mpilite.comm import CollectiveState


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
def test_router_fifo_per_channel():
    r = Router(2)
    r.put(0, 1, 0, "a")
    r.put(0, 1, 0, "b")
    assert r.get(1, 0, 0) == "a"
    assert r.get(1, 0, 0) == "b"


def test_router_copies_numpy_payload():
    r = Router(2)
    buf = np.ones(4)
    r.put(0, 1, 0, buf)
    buf[:] = -1  # sender reuse must not corrupt the message
    got = r.get(1, 0, 0)
    assert np.all(got == 1.0)


def test_router_timeout():
    r = Router(2)
    with pytest.raises(TimeoutError):
        r.get(1, 0, 0, timeout=0.05)


def test_router_poll_and_stats():
    r = Router(2)
    assert not r.poll(1, 0, 0)
    r.put(0, 1, 0, np.zeros(10))
    assert r.poll(1, 0, 0)
    assert r.stats["messages"] == 1
    assert r.stats["bytes"] == 80


def test_router_rank_validation():
    r = Router(2)
    with pytest.raises(ValueError):
        r.put(0, 5, 0, "x")


# ----------------------------------------------------------------------
# SPMD launcher
# ----------------------------------------------------------------------
def test_run_spmd_collects_results():
    def fn(comm):
        return comm.rank * 10

    assert run_spmd(4, fn) == [0, 10, 20, 30]


def test_run_spmd_per_rank_args():
    def fn(comm, mine, shared):
        return (mine, shared)

    out = run_spmd(3, fn, PerRank([5, 6, 7]), "all")
    assert out == [(5, "all"), (6, "all"), (7, "all")]


def test_run_spmd_propagates_exception():
    def fn(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(RuntimeError, match="rank 1"):
        run_spmd(2, fn)


def test_run_spmd_detects_deadlock():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, timeout=0.2)  # nobody sends

    with pytest.raises((TimeoutError, RuntimeError)):
        run_spmd(2, fn, timeout=3.0)


# ----------------------------------------------------------------------
# point-to-point
# ----------------------------------------------------------------------
def test_ring_exchange():
    def fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(comm.rank, right)
        return comm.recv(left)

    out = run_spmd(5, fn)
    assert out == [4, 0, 1, 2, 3]


def test_buffer_send_recv():
    def fn(comm):
        if comm.rank == 0:
            comm.Send(np.arange(5.0), 1)
            return None
        buf = np.zeros(5)
        comm.Recv(buf, 0)
        return buf.tolist()

    assert run_spmd(2, fn)[1] == [0, 1, 2, 3, 4]


def test_recv_shape_mismatch_raises():
    def fn(comm):
        if comm.rank == 0:
            comm.Send(np.zeros(3), 1)
        else:
            buf = np.zeros(5)
            comm.Recv(buf, 0)

    with pytest.raises(RuntimeError, match="shape"):
        run_spmd(2, fn)


def test_request_test_completes_inflight_irecv():
    # regression: test() used to return a flag nothing ever set for an
    # in-flight irecv, so a poll loop would spin forever even with the
    # message already in the mailbox
    def fn(comm):
        if comm.rank == 0:
            time.sleep(0.05)
            comm.Send(np.arange(4.0), 1)
            return None
        req = comm.irecv(0)
        deadline = time.monotonic() + 5.0
        while not req.test():
            assert time.monotonic() < deadline, "test() never observed the message"
            time.sleep(0.005)
        assert req.test()  # idempotent once complete
        return req.wait().tolist()

    assert run_spmd(2, fn)[1] == [0, 1, 2, 3]


def test_request_test_false_before_message_arrives():
    def fn(comm):
        if comm.rank == 1:
            req = comm.irecv(0)
            early = req.test()  # nothing sent yet
            comm.send("go", 0)
            assert req.wait() == "data"
            return early
        comm.recv(1)
        comm.send("data", 1)
        return None

    assert run_spmd(2, fn)[1] is False


def test_isend_request_test_immediately_true():
    def fn(comm):
        if comm.rank == 0:
            req = comm.isend("x", 1)
            assert req.test()
        else:
            assert comm.recv(0) == "x"
        return True

    assert all(run_spmd(2, fn))


def test_comm_send_copies_buffer_immediately():
    # the Router docstring promises senders may reuse their buffer the
    # moment Send/isend returns; pin that at the Comm level
    def fn(comm):
        if comm.rank == 0:
            buf = np.arange(6.0)
            comm.Send(buf, 1, tag=0)
            buf[:] = -1.0  # reuse immediately after a blocking-mode send
            req = comm.isend(buf * 0 + 7.0, 1, tag=1)
            req.wait()
            return None
        first = comm.recv(0, tag=0)
        second = comm.recv(0, tag=1)
        return first.tolist(), second.tolist()

    first, second = run_spmd(2, fn)[1]
    assert first == [0, 1, 2, 3, 4, 5]
    assert second == [7.0] * 6


def test_isend_payload_mutation_after_post():
    def fn(comm):
        if comm.rank == 0:
            buf = np.full(3, 2.0)
            comm.isend(buf, 1)
            buf[:] = 99.0  # mutate after the nonblocking post
            return None
        return comm.recv(0).tolist()

    assert run_spmd(2, fn)[1] == [2.0, 2.0, 2.0]


def test_irecv_isend_waitall():
    def fn(comm):
        peer = 1 - comm.rank
        reqs = [comm.isend(np.full(3, float(comm.rank)), peer),
                comm.irecv(peer)]
        results = comm.waitall(reqs)
        return float(results[1][0])

    assert run_spmd(2, fn) == [1.0, 0.0]


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------
def test_barrier_reusable():
    def fn(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run_spmd(3, fn))


def test_bcast():
    def fn(comm):
        return comm.bcast("payload" if comm.rank == 1 else None, root=1)

    assert run_spmd(3, fn) == ["payload"] * 3


def test_allreduce_sum_scalar_and_array():
    def fn(comm):
        total = comm.allreduce(comm.rank + 1)
        arr = comm.allreduce(np.full(2, float(comm.rank)))
        return total, arr.tolist()

    out = run_spmd(4, fn)
    assert all(t == 10 for t, _ in out)
    assert all(a == [6.0, 6.0] for _, a in out)


@pytest.mark.parametrize("nranks", [1, 2])
def test_allreduce_array_result_is_fresh_and_read_only(nranks):
    # every rank is handed the same combined object (with one rank it
    # used to be the caller's own deposit): an in-place update by one
    # rank must raise, not change what its peers hold
    def fn(comm):
        mine = np.ones(4)
        r = comm.allreduce(mine)
        with pytest.raises(ValueError, match="read-only"):
            r += 1
        comm.barrier()  # every rank has tried its write
        mine += 1  # the deposit stays the caller's, writable
        return r is not mine, r.tolist()

    assert run_spmd(nranks, fn) == [(True, [float(nranks)] * 4)] * nranks


def test_allreduce_custom_op():
    def fn(comm):
        return comm.allreduce(comm.rank, op=max)

    assert run_spmd(4, fn) == [3, 3, 3, 3]


def test_allgather_order():
    def fn(comm):
        return comm.allgather(comm.rank**2)

    assert run_spmd(4, fn) == [[0, 1, 4, 9]] * 4


def test_gather_root_only():
    def fn(comm):
        return comm.gather(comm.rank, root=2)

    out = run_spmd(3, fn)
    assert out[0] is None and out[1] is None
    assert out[2] == [0, 1, 2]


def test_scatter():
    def fn(comm):
        return comm.scatter([10, 20, 30] if comm.rank == 0 else None, root=0)

    assert run_spmd(3, fn) == [10, 20, 30]


def test_exchange_result_landing_at_deadline_is_not_a_timeout():
    # regression: after Condition.wait returned False the code raised
    # TimeoutError without re-checking whether the result had landed in
    # the meantime — a notification arriving exactly at the deadline
    # turned a completed collective into a spurious failure.  Simulate
    # that interleaving deterministically: the wait call itself deposits
    # the combined result (as the last rank would, holding the lock while
    # our timeout expires) and reports a timeout.
    state = CollectiveState(2)

    def racy_wait(timeout=None):
        state._slots.pop(0, None)
        state._results[0] = "combined"
        state._generation = 1
        state._arrived = 0
        return False  # "timed out" — but the result is there

    state._lock.wait = racy_wait
    assert state.exchange(0, "mine", lambda slots: "combined") == "combined"


def test_exchange_genuine_timeout_still_raises(monkeypatch):
    import repro.mpilite.comm as comm_mod

    monkeypatch.setattr(comm_mod, "_DEFAULT_TIMEOUT", 0.05)
    state = CollectiveState(2)
    with pytest.raises(TimeoutError, match="generation 0"):
        state.exchange(0, 1.0, lambda slots: sum(slots.values()))


def test_collectives_mixed_sequence():
    # successive different collectives must not cross-talk (generation ids)
    def fn(comm):
        a = comm.allreduce(1)
        comm.barrier()
        b = comm.allgather(comm.rank)
        c = comm.bcast("x" if comm.rank == 0 else None)
        return (a, b, c)

    out = run_spmd(3, fn)
    assert out == [(3, [0, 1, 2], "x")] * 3
