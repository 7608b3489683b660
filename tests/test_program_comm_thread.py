"""The parked communication thread (repro.program.exec.CommThread).

One thread per engine, started by the engine's first COMM_THREAD region
and handed every later region through a mailbox.  Four things are pinned
here: the *census* (an engine starts exactly one thread however many
sweeps and widths follow, and reuse never changes a bit), the
*lifetime* (every owner stops what it owns; an engine dropped unclosed
stops its thread from a finalizer; nothing outlives its test), the
*failure paths* (today's error types, within two seconds, the engine
reusable or refusing descriptively afterwards) and the *sanitizer model*
(a region is still one spawn edge plus one join edge, with a clock that
starts from the main thread's at hand-off).
"""

from __future__ import annotations

import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.check import ThreadSanitizer
from repro.check.fixtures import SEEDED_PROGRAMS
from repro.core.halo import cached_halo_plan
from repro.core.spmvm import SCHEMES, DistributedSpMVM, distributed_spmv, scatter_vector
from repro.mpilite.comm import CollectiveState, Comm
from repro.mpilite.router import Router
from repro.mpilite.world import PerRank, open_world, run_spmd
from repro.program.exec import UnjoinedCommThreadError, execute_sweep
from repro.program.ir import SweepOp, SweepProgram
from repro.program.lint import lint_sweep_program
from repro.serve import ServiceClosedError, ServiceError, SolverService, build_model
from repro.solvers import DistributedOperator, conjugate_gradient, lanczos

#: Every failure below must surface within this many seconds.
PROMPT = 2.0


def comm_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("comm-thread-")]


@pytest.fixture()
def comm_thread_starts(monkeypatch):
    """Names of the comm threads started while the test runs."""
    started: list[str] = []
    real_start = threading.Thread.start

    def start(self):
        if self.name.startswith("comm-thread-"):
            started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def single_rank_engine(A, **kwargs) -> DistributedSpMVM:
    halo = cached_halo_plan(A, 1, with_matrices=True).ranks[0]
    return DistributedSpMVM(Comm(0, Router(1), CollectiveState(1)), halo, **kwargs)


def in_time(fn, seconds: float = PROMPT):
    """Run *fn* on a thread; its result or exception, or fail after *seconds*."""
    box: list = []

    def target():
        try:
            box.append((fn(), None))
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            box.append((None, exc))

    t = threading.Thread(target=target, name="in-time")
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"still running after {seconds} s"
    return box[0]


# ---------------------------------------------------------------- census


def test_one_thread_per_rank_whatever_the_engine_runs(hmep_tiny, rng, comm_thread_starts):
    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)
    X = rng.standard_normal((hmep_tiny.nrows, 8))

    def fn(comm, halo):
        idents = set()
        xl = scatter_vector(x, plan.partition, comm.rank)
        Xl = scatter_vector(X, plan.partition, comm.rank)
        with DistributedSpMVM(comm, halo) as engine:
            assert engine.comm_thread is None  # construction starts nothing
            for i in range(200):
                if i % 2:
                    engine.multiply_block(Xl, "task_mode")
                else:
                    engine.multiply(xl, "task_mode")
                idents.add(engine.comm_thread.ident)
            thread = engine.comm_thread
        assert not thread.is_alive()  # close() joined it
        return idents

    per_rank = run_spmd(2, fn, PerRank(plan.ranks))
    assert all(len(idents) == 1 for idents in per_rank)
    assert sorted(comm_thread_starts) == ["comm-thread-0", "comm-thread-1"]


def test_vector_mode_engines_start_no_thread(hmep_tiny, rng, comm_thread_starts):
    x = rng.standard_normal(hmep_tiny.nrows)
    for scheme in ("no_overlap", "naive_overlap"):
        distributed_spmv(hmep_tiny, x, 2, scheme=scheme, iterations=3)
    assert comm_thread_starts == []


def test_reused_engine_reproduces_fresh_engine_bits(hmep_tiny, rng):
    # interleave schemes and widths on ONE engine: each result must be the
    # bits a fresh engine computes for that call alone
    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)
    calls = [(scheme, k) for k in (1, 8, 3, 1) for scheme in SCHEMES]

    def fn(comm, halo):
        xl = scatter_vector(x, plan.partition, comm.rank)
        mismatches = []
        with DistributedSpMVM(comm, halo) as reused:
            for scheme, k in calls:
                Xl = np.ascontiguousarray(np.outer(xl, np.arange(1.0, k + 1)))
                with DistributedSpMVM(comm, halo) as fresh:
                    if k == 1:
                        pair = reused.multiply(xl, scheme), fresh.multiply(xl, scheme)
                    else:
                        pair = reused.multiply_block(Xl, scheme), fresh.multiply_block(Xl, scheme)
                if not np.array_equal(*pair):
                    mismatches.append((scheme, k))
        return mismatches

    assert run_spmd(2, fn, PerRank(plan.ranks)) == [[], []]


def test_mailbox_under_preemption_stress(hmep_tiny, rng):
    # more rank + comm threads than cores, and a switch interval short
    # enough to preempt between any two bytecodes of the hand-off: a lost
    # or misrouted token would hang (the watchdog) or change a bit
    plan = cached_halo_plan(hmep_tiny, 4, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)
    X = rng.standard_normal((hmep_tiny.nrows, 3))

    def fn(comm, halo):
        xl = scatter_vector(x, plan.partition, comm.rank)
        Xl = scatter_vector(X, plan.partition, comm.rank)
        with DistributedSpMVM(comm, halo) as engine:
            want = engine.multiply(xl, "no_overlap"), engine.multiply_block(Xl, "no_overlap")
            for i in range(120):
                if i % 3:
                    got = engine.multiply(xl, "task_mode")
                else:
                    got = engine.multiply_block(Xl, "task_mode")
                if not np.array_equal(got, want[i % 3 == 0]):
                    return i
        return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run_spmd(4, fn, PerRank(plan.ranks), timeout=60.0) == [None] * 4
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------- no leak


def test_one_shot_calls_leave_no_thread(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    baseline = threading.active_count()
    for _ in range(50):
        distributed_spmv(hmep_tiny, x, 2)
    assert threading.active_count() == baseline
    assert comm_threads() == []


def test_service_close_stops_its_engines_threads(hmep_tiny, rng):
    baseline = threading.active_count()
    svc = SolverService(build_model(hmep_tiny, 2), name="census")
    for _ in range(20):
        svc.solve(rng.standard_normal(hmep_tiny.nrows), timeout=30.0)
    assert len(comm_threads()) == 2  # one per rank, not one per request
    svc.close()
    assert comm_threads() == []
    assert threading.active_count() == baseline


@pytest.mark.parametrize("solver", ["lanczos", "cg"])
def test_solvers_leave_no_thread(solver, rng):
    from repro.matrices import poisson_2d

    A = poisson_2d(12)
    plan = cached_halo_plan(A, 2, with_matrices=True)
    b = rng.standard_normal(A.nrows)
    baseline = threading.active_count()

    def fn(comm, halo):
        bl = scatter_vector(b, plan.partition, comm.rank)
        with DistributedOperator(comm, halo, "task_mode") as op:
            if solver == "lanczos":
                return lanczos(op, tol=1e-8, max_iter=60, v0=bl).iterations
            return conjugate_gradient(op, bl, tol=1e-8, max_iter=500).iterations

    assert min(run_spmd(2, fn, PerRank(plan.ranks))) > 1
    assert comm_threads() == []
    assert threading.active_count() == baseline


def test_engine_dropped_without_close_stops_its_thread(hmep_tiny, rng):
    # the path benchmarks/ledger relies on: its rank functions build
    # engines and never close them
    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)
    seen: list[threading.Thread] = []

    def fn(comm, halo):
        engine = DistributedSpMVM(comm, halo)
        engine.multiply(scatter_vector(x, plan.partition, comm.rank), "task_mode")
        seen.append(engine.comm_thread)

    run_spmd(2, fn, PerRank(plan.ranks))
    assert len(seen) == 2
    for thread in seen:
        thread.join(0.5)  # bounded: the finalizer's sentinel is already posted
    assert not any(thread.is_alive() for thread in seen)


def test_parked_thread_does_not_keep_its_engine_alive(hmep_tiny, rng):
    engine = single_rank_engine(hmep_tiny)
    engine.multiply(rng.standard_normal(hmep_tiny.nrows), "task_mode")
    thread, ref = engine.comm_thread, weakref.ref(engine)
    assert thread.is_alive()
    del engine
    assert ref() is None  # no cycle, no reference from the parked thread
    thread.join(1.0)
    assert not thread.is_alive()


def test_close_is_idempotent_and_a_later_sweep_restarts_the_thread(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    engine = single_rank_engine(hmep_tiny)
    engine.close()  # before any region: a no-op
    assert engine.comm_thread is None
    y = engine.multiply(x, "task_mode")
    first = engine.comm_thread
    engine.close()
    engine.close()
    assert not first.is_alive() and engine.comm_thread is None
    # documented choice: the engine stays usable, a fresh thread is started
    assert np.array_equal(engine.multiply(x, "task_mode"), y)
    second = engine.comm_thread
    assert second is not first and second.is_alive()
    engine.close()
    assert not second.is_alive()


# --------------------------------------------------------- failure paths


class Injected(Exception):
    pass


def fail_nth_call(obj, name: str, n: int):
    """Make the *n*-th call of ``obj.name`` raise :class:`Injected`."""
    real, calls = getattr(obj, name), [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise Injected(f"{name} call {n}")
        return real(*args, **kwargs)

    setattr(obj, name, wrapper)
    return lambda: delattr(obj, name)


def width_input(rng, nrows: int, k: int) -> np.ndarray:
    """A vector for k = 1, an ``(nrows, k)`` block otherwise."""
    return rng.standard_normal(nrows) if k == 1 else rng.standard_normal((nrows, k))


def multiply_any(engine, x, scheme):
    return (engine.multiply if x.ndim == 1 else engine.multiply_block)(x, scheme)


@pytest.mark.parametrize("k,failing_call", [(1, 1), (8, 3)])
def test_comm_body_failure_surfaces_on_the_main_path(hmep_tiny, rng, k, failing_call):
    # failing_call = 1: the region that starts the thread dies; 3: a region
    # handed to the thread while it is parked does
    x = width_input(rng, hmep_tiny.nrows, k)
    with single_rank_engine(hmep_tiny) as engine:
        want = multiply_any(engine, x, "no_overlap")
        restore = fail_nth_call(engine, "send_buffers", failing_call)
        for _ in range(failing_call - 1):
            assert np.array_equal(multiply_any(engine, x, "task_mode"), want)
        _res, exc = in_time(lambda: multiply_any(engine, x, "task_mode"))
        assert isinstance(exc, RuntimeError)
        assert str(exc).startswith("communication thread failed: Injected(")
        assert isinstance(exc.__cause__, Injected)
        restore()
        thread = engine.comm_thread
        assert thread.is_alive()  # parked again, not dead
        got, exc = in_time(lambda: multiply_any(engine, x, "task_mode"))
        assert exc is None and engine.comm_thread is thread
        assert np.array_equal(got, want)
    assert comm_threads() == []


@pytest.mark.parametrize("k,failing_call", [(1, 1), (8, 3)])
def test_main_path_failure_reaps_the_open_region(hmep_tiny, rng, monkeypatch, k, failing_call):
    # the local kernel dies with the region open (the engine's first, or one
    # on the parked thread): the main path takes the region's completion
    # token before it re-raises
    import repro.program.exec as program_exec

    x = width_input(rng, hmep_tiny.nrows, k)
    kernel = "spmv" if k == 1 else "spmm"
    with single_rank_engine(hmep_tiny) as engine:
        want = multiply_any(engine, x, "no_overlap")
        healthy = getattr(program_exec, kernel)
        calls = [0]

        def dying(*args, **kwargs):
            calls[0] += 1
            if calls[0] == failing_call:
                raise Injected("kernel")
            return healthy(*args, **kwargs)

        monkeypatch.setattr(program_exec, kernel, dying)
        for _ in range(failing_call - 1):
            assert np.array_equal(multiply_any(engine, x, "task_mode"), want)
        _res, exc = in_time(lambda: multiply_any(engine, x, "task_mode"))
        assert isinstance(exc, Injected)
        monkeypatch.undo()
        got, exc = in_time(lambda: multiply_any(engine, x, "task_mode"))
        assert exc is None
        assert np.array_equal(got, want)
    assert comm_threads() == []


def test_body_rendezvous_is_refused_not_hung(hmep_tiny, rng, comm_thread_starts):
    # lint-clean: a body OMP_BARRIER pairs with the next main-path barrier
    # (the simulator's rendezvous).  The real backend has none — it must
    # say so before it posts a request or starts a thread, not park both
    # sides at barriers that mean different things
    paced = SweepProgram(scheme="task_mode", ops=(
        SweepOp("POST_RECVS"),
        SweepOp("PACK"),
        SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(
            SweepOp("POST_SENDS"), SweepOp("OMP_BARRIER"), SweepOp("WAITALL"),
        )),
        SweepOp("LOCAL_SPMVM"),
        SweepOp("OMP_BARRIER"),
        SweepOp("OMP_BARRIER"),
        SweepOp("REMOTE_SPMVM"),
    ))
    assert lint_sweep_program(paced) == []
    x = rng.standard_normal(hmep_tiny.nrows)
    with single_rank_engine(hmep_tiny) as engine:
        _res, exc = in_time(lambda: execute_sweep(engine, paced, x), seconds=1.0)
        assert isinstance(exc, ValueError)
        assert "OMP_BARRIER inside a COMM_THREAD body" in str(exc) and "simulator" in str(exc)
        assert engine.comm_thread is None and comm_thread_starts == []
        got, exc = in_time(lambda: engine.multiply(x, "task_mode"))
        assert exc is None and np.array_equal(got, engine.multiply(x, "no_overlap"))
    assert comm_threads() == []


def test_unjoined_program_leaves_a_reusable_engine(hmep_tiny, rng):
    unjoined = SweepProgram(scheme="task_mode", ops=(
        SweepOp("POST_RECVS"),
        SweepOp("PACK"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("LOCAL_SPMVM"),
        SweepOp("REMOTE_SPMVM"),
    ))
    x = rng.standard_normal(hmep_tiny.nrows)
    with single_rank_engine(hmep_tiny) as engine:
        _res, exc = in_time(lambda: execute_sweep(engine, unjoined, x))
        assert isinstance(exc, UnjoinedCommThreadError)
        assert "COMM_THREAD(POST_SENDS,WAITALL)" in str(exc)
        got, exc = in_time(lambda: engine.multiply(x, "task_mode"))
        assert exc is None and np.array_equal(got, engine.multiply(x, "no_overlap"))
    assert comm_threads() == []


def test_world_abort_fails_a_body_blocked_in_waitall(hmep_tiny, rng):
    from repro.mpilite.router import WorldAbortedError

    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    world = open_world(2, recv_timeout=30.0)
    xl = scatter_vector(rng.standard_normal(hmep_tiny.nrows), plan.partition, 0)
    in_waitall = threading.Event()
    with DistributedSpMVM(world.comms[0], plan.ranks[0]) as engine:
        waitall = engine.complete_halo_receives

        def complete_halo_receives(*args):
            in_waitall.set()
            return waitall(*args)

        engine.complete_halo_receives = complete_halo_receives
        failures: list[BaseException] = []

        def sweep():
            try:
                engine.multiply(xl, "task_mode")
            except BaseException as exc:  # noqa: BLE001 - asserted on below
                failures.append(exc)

        # rank 1 never sweeps: rank 0's WAITALL can only end by the abort
        sweeper = threading.Thread(target=sweep, name="sweeper")
        sweeper.start()
        assert in_waitall.wait(PROMPT)
        world.abort("test: rank 1 is gone")
        sweeper.join(PROMPT)
        assert not sweeper.is_alive()
        (exc,) = failures
        assert isinstance(exc, RuntimeError)
        assert str(exc).startswith("communication thread failed: WorldAbortedError(")
        assert isinstance(exc.__cause__, WorldAbortedError)
        # the world is gone for good: the still-open engine refuses, descriptively
        _res, exc = in_time(lambda: engine.multiply(xl, "task_mode"))
        assert isinstance(exc.__cause__, WorldAbortedError) and "rank 1 is gone" in str(exc)
    assert comm_threads() == []


def test_injected_service_fault_fails_fast_and_leaves_no_thread(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    svc = SolverService(build_model(hmep_tiny, 2), name="doomed")
    svc.solve(x, timeout=30.0)  # both engines have parked their threads
    assert len(comm_threads()) == 2
    svc.inject_fault(1)
    t0 = time.perf_counter()
    with pytest.raises(ServiceError, match="rank 1 failed serving batch"):
        svc.solve(x, timeout=30.0)
    assert time.perf_counter() - t0 < PROMPT
    with pytest.raises(ServiceClosedError, match="failed"):
        svc.submit(x)
    svc.close()
    assert comm_threads() == []


# ------------------------------------------------------- sanitizer model


def run_sanitized(A, x, san, body) -> None:
    """Run ``body(engine, x_local, comm)`` on two ranks, every sweep under *san*."""
    plan = cached_halo_plan(A, 2, with_matrices=True)

    def fn(comm, halo):
        with DistributedSpMVM(comm, halo, sanitizer=san) as engine:
            body(engine, scatter_vector(x, plan.partition, comm.rank), comm)

    run_spmd(2, fn, PerRank(plan.ranks), recv_timeout=10.0, timeout=30.0)


@pytest.mark.parametrize("name", sorted(SEEDED_PROGRAMS))
def test_seeded_race_fires_again_on_the_parked_thread(hmep_tiny, rng, name):
    # second execution: same OS thread, fresh sanitizer identity whose
    # clock starts from the main thread's at hand-off.  A clock carried
    # over from the first region would order the racing accesses.
    program = SEEDED_PROGRAMS[name]()
    san = ThreadSanitizer()
    counts: list[int] = []

    def body(engine, xl, comm):
        for _ in range(2):
            execute_sweep(engine, program, xl)
            comm.barrier()
            if comm.rank == 0:
                counts.append(len(san.findings))
                san._reported.clear()  # findings are deduplicated by (buffer, ops)
            comm.barrier()

    run_sanitized(hmep_tiny, rng.standard_normal(hmep_tiny.nrows), san, body)
    first, both = counts
    assert first > 0 and both >= 2 * first
    again = san.findings[first:]
    assert {f.details["domain"] for f in again} == {"rank0", "rank1"}
    assert all(f.kind == "thread-race" for f in again)


def test_clean_sweeps_on_one_engine_report_nothing(hmep_tiny, rng):
    def body(engine, xl, comm):
        for _ in range(4):
            engine.multiply(xl, "task_mode")
            comm.barrier()

    san = ThreadSanitizer()
    run_sanitized(hmep_tiny, rng.standard_normal(hmep_tiny.nrows), san, body)
    report = san.finalize()
    assert report.ok, report.render()
    # four regions per rank, each its own spawn edge and sanitizer identity
    names = [st.name for st in san._by_tid.values()]
    assert names.count("comm-thread-0") == names.count("comm-thread-1") == 4
