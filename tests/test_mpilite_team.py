"""The process-wide team of parked threads (repro.mpilite.team).

Every mpilite rank of ``run_spmd`` and every engine's communication
thread is a borrowed team thread.  Pinned here: a warm process starts no
thread for a one-shot call, a borrowed thread wears its role as its name
and its team name once parked, each job starts from an empty context, a
failed rank's thread goes back healthy, a rank that outlives the
timeout keeps its thread (and the deadline is one for all ranks), nested
and concurrent callers each get threads of their own, a forked child
starts with an empty team, a thread that has ended is never parked, a
job that raises leaves its thread usable, and the team keeps at most
``MAX_PARKED`` threads.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
import queue
import sys
import threading
import time

import numpy as np
import pytest

import repro.mpilite.team as team
from repro.core import distributed_spmm, distributed_spmv
from repro.mpilite import run_spmd
from repro.sparse import spmv
from tests.conftest import borrowed_threads, grow_team

VAR: contextvars.ContextVar[str] = contextvars.ContextVar("VAR", default="unset")


@pytest.mark.parametrize("scheme", ["task_mode", "naive_overlap", "no_overlap"])
def test_a_warm_process_starts_no_thread_per_call(hmep_tiny, rng, thread_starts, scheme):
    x = rng.standard_normal(hmep_tiny.nrows)
    X = rng.standard_normal((hmep_tiny.nrows, 3))
    want = distributed_spmv(hmep_tiny, x, 3, scheme=scheme)
    grow_team(6)  # the peak of a 3-rank call: 3 ranks, 3 comm threads
    thread_starts.clear()
    for _ in range(10):
        assert np.array_equal(distributed_spmv(hmep_tiny, x, 3, scheme=scheme), want)
        distributed_spmm(hmep_tiny, X, 2, scheme=scheme, iterations=2)
    assert thread_starts == []


def test_borrowed_threads_wear_their_role_and_park_as_team():
    def fn(comm):
        me = threading.current_thread()
        return me, me.name

    out = run_spmd(3, fn)
    assert [name for _thread, name in out] == [f"mpilite-rank-{r}" for r in range(3)]
    threads = [thread for thread, _name in out]
    assert all(t.is_alive() and t.name.startswith("team-") for t in threads)
    assert borrowed_threads() == []


def test_each_job_starts_from_an_empty_context():
    # a fresh thread starts with no context variables set; a parked one
    # must not hand its last job's to the next
    def set_it(comm):
        seen = VAR.get()
        VAR.set(f"rank {comm.rank}")
        return seen

    assert run_spmd(2, set_it) == ["unset", "unset"]
    assert run_spmd(2, set_it) == ["unset", "unset"]
    assert VAR.get() == "unset"  # and the caller's context is its own


def test_a_failed_rank_gives_a_healthy_thread_back(thread_starts):
    def fn(comm):
        if comm.rank == 0:
            raise KeyError("rank 0's own bug")
        return comm.rank

    run_spmd(2, lambda comm: None)  # two parked threads at least
    thread_starts.clear()
    with pytest.raises(RuntimeError, match=r"^rank 0 failed: KeyError"):
        run_spmd(2, fn)
    assert run_spmd(2, lambda comm: comm.rank) == [0, 1]
    assert thread_starts == []


def test_the_timeout_is_one_deadline_and_a_late_rank_keeps_its_thread():
    release = threading.Event()
    ranks: dict[int, threading.Thread] = {}

    def fn(comm):
        ranks[comm.rank] = threading.current_thread()
        release.wait(10.0)

    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match=r"4 rank\(s\) did not finish within 0.3 s"):
        run_spmd(4, fn, timeout=0.3)
    # one deadline for the whole world, not 0.3 s per rank joined in turn
    assert time.monotonic() - t0 < 1.0
    assert sorted(t.name for t in ranks.values()) == [f"mpilite-rank-{r}" for r in range(4)]
    release.set()
    for thread in ranks.values():
        thread.join(2.0)  # retired: it ends once its rank returns
    assert not any(thread.is_alive() for thread in ranks.values())


def test_nested_and_concurrent_callers_each_get_their_own_threads(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    want = spmv(hmep_tiny, x)

    def outer(comm):
        # a rank that runs a world of its own borrows more threads
        return distributed_spmv(hmep_tiny, x, 2)

    for y in run_spmd(2, outer):
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)

    # four callers borrowing and giving back at once (16 threads on a
    # 2-vCPU host), preempted between any two bytecodes: a thread handed
    # to two borrowers would mix their tokens (a hang or a changed bit),
    # and one given back twice would sit in the team twice
    results: list[np.ndarray] = []

    def caller():
        for _ in range(5):
            results.append(distributed_spmv(hmep_tiny, x, 2))

    callers = [threading.Thread(target=caller) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 20
    assert all(np.array_equal(y, results[0]) for y in results)
    assert borrowed_threads() == []
    parked = []
    while True:
        try:
            parked.append(team._parked.get_nowait())
        except queue.Empty:
            break
    for thread in parked:
        team._parked.put(thread)
    assert len({id(t) for t in parked}) == len(parked)


def _child_runs_spmd(out) -> None:
    out.put(run_spmd(2, lambda comm: comm.rank))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_with_an_empty_team():
    # the child inherits the parked threads' objects but not the threads:
    # handing a job to one would wait forever
    run_spmd(2, lambda comm: None)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_child_runs_spmd, args=(out,))
    child.start()
    try:
        assert out.get(timeout=10.0) == [0, 1]
    finally:
        child.join(10.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def _child_gives_back_an_inherited_thread(out, thread) -> None:
    # what an inherited engine's finalizer does in the child
    team.give_back(thread)
    out.put(run_spmd(2, lambda comm: comm.rank, timeout=5.0))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_does_not_park_an_inherited_thread():
    thread = team.borrow("comm-thread-0")
    thread.hand_off(lambda: None)
    assert thread.wait(5.0)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_child_gives_back_an_inherited_thread, args=(out, thread))
    child.start()
    try:
        assert out.get(timeout=10.0) == [0, 1]
    finally:
        team.give_back(thread)
        child.join(10.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_a_thread_that_has_ended_is_not_parked_again():
    thread = team.borrow("comm-thread-0")
    thread.hand_off(lambda: None)
    assert thread.wait(5.0)
    thread.retire()
    thread.join(5.0)
    assert not thread.is_alive()
    team.give_back(thread)
    assert run_spmd(2, lambda comm: comm.rank, timeout=5.0) == [0, 1]
    parked = []
    while True:
        try:
            parked.append(team._parked.get_nowait())
        except queue.Empty:
            break
    for t in parked:
        team._parked.put(t)
    assert thread not in parked


def test_a_job_that_raises_is_reported_and_the_thread_carries_on(monkeypatch):
    reported = []
    monkeypatch.setattr(threading, "excepthook", reported.append)
    thread = team.borrow("comm-thread-0")

    def job():
        raise KeyError("a job's own bug")

    thread.hand_off(job)
    assert thread.wait(5.0)
    (args,) = reported
    assert (args.exc_type, args.thread) == (KeyError, thread)
    ran = []
    thread.hand_off(lambda: ran.append(threading.current_thread()))
    assert thread.wait(5.0)
    assert ran == [thread]
    team.give_back(thread)


def test_a_thread_given_back_to_a_full_team_ends(monkeypatch):
    monkeypatch.setattr(team, "MAX_PARKED", 0)
    parked_before = team._parked.qsize()
    ranks: list[threading.Thread] = []
    run_spmd(3, lambda comm: ranks.append(threading.current_thread()))
    for thread in ranks:
        thread.join(2.0)
    assert not any(thread.is_alive() for thread in ranks)
    assert team._parked.qsize() <= parked_before
