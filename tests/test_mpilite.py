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
        right = (comm.rank + 1) % 5
        left = (comm.rank - 1) % 5
        comm.send(comm.rank, right)
        return comm.recv(left)

    out = run_spmd(5, fn)
    assert out == [4, 0, 1, 2, 3]


def test_buffer_send_recv():
    def fn(comm):
        if comm.rank == 0:
            comm.send(np.arange(5.0), 1)
            return None
        return comm.recv(0).tolist()

    assert run_spmd(2, fn)[1] == [0, 1, 2, 3, 4]


def test_isend_request_test_immediately_true():
    # buffered: the request is complete when isend returns, so wait()
    # does not need the receiver, which takes the message only after a
    # "go" that rank 0 sends once its wait() has returned
    def fn(comm):
        if comm.rank == 0:
            req = comm.isend("x", 1)
            assert req.wait() is None
            comm.send("go", 1, tag=1)
        else:
            assert comm.recv(0, tag=1) == "go"
            assert comm.recv(0) == "x"
        return True

    assert all(run_spmd(2, fn))


def test_comm_send_copies_buffer_immediately():
    # the Router docstring promises senders may reuse their buffer the
    # moment send/isend returns; pin that at the Comm level
    def fn(comm):
        if comm.rank == 0:
            buf = np.arange(6.0)
            comm.send(buf, 1, tag=0)
            buf[:] = -1.0  # reuse immediately after a blocking send
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


def test_exchange_result_landing_at_deadline_is_not_a_timeout():
    # regression: after Condition.wait returned False the code raised
    # TimeoutError without re-checking whether the result had landed in
    # the meantime — a notification arriving exactly at the deadline
    # turned a completed collective into a spurious failure.  Simulate
    # that interleaving deterministically: the wait call itself runs out
    # the whole timeout, deposits the combined result (as the last rank
    # would, holding the lock while our timeout expires) and reports a
    # timeout.  The wait loop is repro.mpilite.router.wait_until, the one
    # a blocked receive runs too.
    state = CollectiveState(2, timeout=0.05)

    def racy_wait(timeout=None):
        time.sleep(timeout)  # the deadline has passed when this returns
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
        b = comm.allreduce(comm.rank, op=max)
        c = comm.allreduce(np.full(2, float(comm.rank)))
        return (a, b, c.tolist())

    out = run_spmd(3, fn)
    assert out == [(3, 2, [3.0, 3.0])] * 3


def _collide(world, calls, order):
    """Run ``calls[r](world.comms[r])`` on one thread per rank, each
    entering its collective only after the ranks before it in *order*
    have deposited; return what each rank returned or raised."""
    import threading

    out: list = [None] * world.nranks

    def run(rank):
        try:
            out[rank] = calls[rank](world.comms[rank])
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            out[rank] = exc

    threads = []
    for arrived, rank in enumerate(order):
        while world.collectives._arrived < arrived:
            time.sleep(0.001)
        threads.append(threading.Thread(target=run, args=(rank,)))
        threads[-1].start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    return out


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["barrier-first", "allreduce-first"])
def test_mismatched_collectives_fail_every_rank(order):
    # rank 0 in barrier, rank 1 in allreduce: the allreduce caller used
    # to get None (barrier last) or a TypeError on one rank (barrier first)
    from repro.mpilite import World

    world = World(2, recv_timeout=5.0)
    out = _collide(world, [lambda c: c.barrier(), lambda c: c.allreduce(5.0)], order)
    for rank, got in enumerate(out):
        assert isinstance(got, RuntimeError), got
        assert str(got) == (
            f"rank {rank}: collective generation 0 mismatched: "
            f"rank 0 called barrier, rank 1 called allreduce"
        )


def test_mismatched_collective_names_every_rank_and_leaves_the_next_generation():
    from repro.mpilite import World

    world = World(3, recv_timeout=5.0)
    calls = [lambda c: c.allreduce(1.0), lambda c: c.barrier(), lambda c: c.allreduce(2.0)]
    out = _collide(world, calls, (2, 0, 1))
    want = (
        "collective generation 0 mismatched: rank 0 called allreduce, "
        "rank 1 called barrier, rank 2 called allreduce"
    )
    assert [str(e) for e in out] == [f"rank {r}: {want}" for r in range(3)]
    # the generation is spent; the next matched one combines as usual
    out = _collide(world, [lambda c, r=r: c.allreduce(float(r)) for r in range(3)], (0, 1, 2))
    assert out == [3.0] * 3


def test_run_spmd_reports_a_mismatched_collective():
    def fn(comm):
        return comm.barrier() if comm.rank == 0 else comm.allreduce(5.0)

    with pytest.raises(RuntimeError, match=r"rank 0 called barrier, rank 1 called allreduce"):
        run_spmd(2, fn, timeout=10.0, recv_timeout=5.0)
