"""Dynamic-prong detectors: every seeded bug must fire, with provenance."""

import numpy as np
import pytest

from repro.check import (
    SEED_BUGS,
    Checker,
    DeadlockError,
    run_checked,
    run_seed_bug,
)
from repro.mpilite import run_spmd


def _checked(nranks, fn, **world):
    """``run_checked`` over ``run_spmd(nranks, fn, **world)``."""
    return run_checked(nranks, lambda checker: run_spmd(nranks, fn, observer=checker, **world))


# ----------------------------------------------------------------------
# deadlocks
# ----------------------------------------------------------------------
def test_recv_cycle_is_diagnosed_with_both_ranks_and_tags():
    fired, report = run_seed_bug("deadlock-cycle")
    assert fired
    (finding,) = report.by_kind("deadlock")
    assert finding.ranks == (0, 1)
    assert "recv(source=1, tag=1)" in finding.message
    assert "recv(source=0, tag=1)" in finding.message
    assert finding.details["cycle"] in ([0, 1], [1, 0])


def test_deadlock_raises_immediately_inside_the_blocked_rank():
    def fn(comm):
        peer = 1 - comm.rank
        comm.recv(peer, tag=4)

    checker = Checker(2)
    # the world fails fast with DeadlockError, long before the 30s timeout
    with pytest.raises(RuntimeError, match="DeadlockError"):
        run_spmd(2, fn, timeout=30.0, recv_timeout=30.0, observer=checker)
    assert checker.finalize().by_kind("deadlock")


def test_collective_watchdog_names_the_finished_rank():
    fired, report = run_seed_bug("collective-stall")
    assert fired
    (finding,) = report.by_kind("deadlock")
    assert finding.ranks == (0, 1)
    assert "collective generation 0" in finding.message
    assert "2 already finished" in finding.message
    assert finding.details["finished"] == [2]


def test_recv_from_finished_rank_is_a_deadlock():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, tag=3)  # rank 1 exits without ever sending

    _results, report = _checked(2, fn, recv_timeout=20.0, timeout=30.0)
    (finding,) = report.by_kind("deadlock")
    assert 0 in finding.ranks
    assert "1 already finished" in finding.message


def test_blocked_rank_with_pending_message_is_not_deadlocked():
    # a wait-for edge is suppressed while a matching message is in flight
    def fn(comm):
        if comm.rank == 0:
            comm.send("x", 1, tag=2)
            comm.recv(1, tag=2)
        else:
            assert comm.recv(0, tag=2) == "x"
            comm.send("y", 0, tag=2)

    results, report = _checked(2, fn, recv_timeout=10.0)
    assert results is not None
    assert report.ok, report.render()


def test_three_rank_cycle():
    def fn(comm):
        comm.recv((comm.rank + 1) % 3, tag=0)

    _results, report = _checked(3, fn, recv_timeout=20.0, timeout=30.0)
    (finding,) = report.by_kind("deadlock")
    assert finding.ranks == (0, 1, 2)
    assert len(finding.details["cycle"]) == 3


# ----------------------------------------------------------------------
# arrays in flight
# ----------------------------------------------------------------------
def test_untouched_buffers_are_clean():
    def fn(comm):
        if comm.rank == 0:
            out = np.arange(4.0)
            req = comm.isend(out, 1, tag=2)
            req.wait()
        else:
            buf = comm.irecv(0, tag=2).wait()
            assert np.all(buf == np.arange(4.0))

    results, report = _checked(2, fn, recv_timeout=10.0)
    assert results is not None
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# leaks and unconsumed messages
# ----------------------------------------------------------------------
def test_leaked_request_and_unconsumed_messages_at_teardown():
    fired, report = run_seed_bug("leaked-request")
    assert fired
    (leak,) = report.by_kind("leaked-request")
    assert leak.ranks == (1,)
    assert "irecv(peer=0, tag=8)" in leak.message
    unconsumed = report.by_kind("unconsumed-message")
    assert {f.details["tag"] for f in unconsumed} == {8, 9}
    assert not report.by_kind("deadlock")


def test_completed_requests_do_not_leak():
    def fn(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=8)
        else:
            req = comm.irecv(0, tag=8)
            assert comm.waitall([req]) == ["a"]

    results, report = _checked(2, fn, recv_timeout=10.0)
    assert results is not None
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# a failed world is not a diagnosis
# ----------------------------------------------------------------------
def test_a_raising_world_is_only_a_world_failure():
    def fn(comm):
        if comm.rank == 1:
            raise ValueError("not a communication bug")

    results, report = _checked(2, fn, recv_timeout=10.0)
    assert results is None
    assert report.kinds() == ["world-failure"]
    (finding,) = report.findings
    assert "ValueError" in finding.message and finding.details["exception"] == "RuntimeError"


def test_a_seed_bug_whose_world_raises_has_not_fired(monkeypatch):
    # a leaked request is still on the books when the world crashes, but
    # the crash, not the detector, is what ended the run
    def fn(comm):
        if comm.rank == 1:
            comm.irecv(0, tag=8)
            raise ValueError("crashed before the seeded bug ran")

    def runner():
        return _checked(2, fn, recv_timeout=10.0)[1]

    monkeypatch.setitem(SEED_BUGS, "leaked-request", ("leaked-request", runner))
    fired, report = run_seed_bug("leaked-request")
    assert fired is False
    assert {"leaked-request", "world-failure"} <= set(report.kinds())


def test_deadlock_error_is_a_runtime_error():
    assert issubclass(DeadlockError, RuntimeError)
