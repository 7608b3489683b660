"""Seeded-bug fixtures: one per detector, proving each actually fires.

``repro check --seed-bug NAME`` (and the test-suite) runs these tiny
worlds/plans, each constructed to contain exactly one class of
communication bug.  A detector that stays silent on its fixture is
broken — the fixtures are the analyzer's own regression harness, and a
live demonstration of what each diagnostic looks like.

Every entry maps a stable name to ``(expected finding kind, runner)``;
the runner returns the :class:`~repro.check.findings.CheckReport` of the
seeded run.  Every dynamic fixture, rank-level and thread-level alike,
runs through :func:`~repro.check.driver.run_checked`, so both halves of
the checker watch each one.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable

import numpy as np

from repro.check.driver import run_checked
from repro.check.findings import CheckReport

__all__ = ["SEED_BUGS", "SEEDED_PROGRAMS", "run_seed_bug"]


def _observed_world(name: str, nranks: int, fn: Callable[..., Any], *args: Any) -> CheckReport:
    """Run ``fn(comm, *args)`` on *nranks* ranks under a fresh checker."""
    from repro.mpilite.world import run_spmd

    _results, report = run_checked(
        nranks,
        lambda checker: run_spmd(
            nranks, fn, *args, recv_timeout=10.0, timeout=30.0, observer=checker
        ),
        context=f"seed-bug {name}",
    )
    return report


def _deadlock_cycle() -> CheckReport:
    """Two ranks receive from each other before either sends: a 2-cycle."""

    def fn(comm) -> None:
        peer = 1 - comm.rank
        comm.recv(peer, tag=1)  # both block here: nobody has sent yet
        comm.send(comm.rank, peer, tag=1)

    return _observed_world("deadlock-cycle", 2, fn)


def _collective_stall() -> CheckReport:
    """Rank 2 returns without entering the barrier the others sit in."""

    def fn(comm) -> None:
        if comm.rank != 2:
            comm.barrier()

    return _observed_world("collective-stall", 3, fn)


def _message_race() -> CheckReport:
    """Two causally concurrent sends race for one wildcard receive."""
    from repro.mpilite.router import ANY_SOURCE

    def fn(comm) -> list[int] | None:
        if comm.rank == 0:
            first = comm.recv(ANY_SOURCE, tag=5)
            second = comm.recv(ANY_SOURCE, tag=5)
            return [first, second]
        comm.send(comm.rank, 0, tag=5)
        return None

    return _observed_world("message-race", 3, fn)


def _leaked_request() -> CheckReport:
    """A request never completed, and a message nobody ever receives."""

    def fn(comm) -> None:
        if comm.rank == 0:
            comm.send("claimed", 1, tag=8)
            comm.send("orphaned", 1, tag=9)
        else:
            comm.irecv(0, tag=8)  # posted, never wait()ed
        comm.barrier()  # make rank 1 outlive the sends deterministically

    return _observed_world("leaked-request", 2, fn)


def _plan_lint() -> CheckReport:
    """A node-aware plan mutated the way real planner bugs look."""
    from repro.check.lint import lint_comm_plan
    from repro.comm.plan import build_comm_plan
    from repro.core.halo import cached_halo_plan
    from repro.matrices import get_matrix

    A = get_matrix("HMeP", "tiny").build_cached()
    nranks, ranks_per_node = 4, 2
    halo = cached_halo_plan(A, nranks)
    rank_node = [r // ranks_per_node for r in range(nranks)]
    plan = build_comm_plan(halo, rank_node, kind="node-aware")

    # inflate one message's element count (volume no longer conserved)
    ch = plan.messages[-1].channel
    plan.messages[ch] = dataclasses.replace(
        plan.messages[ch], n_elements=plan.messages[ch].n_elements + 3
    )
    # and orphan it: its receiver forgets the channel entirely
    dst = plan.messages[ch].dst
    plan.scripts[dst].recv_channels.remove(ch)

    report = CheckReport(context="seed-bug plan-lint")
    report.extend(lint_comm_plan(plan, halo))
    return report


def _missing_barrier_program():
    """Task mode whose joining OMP_BARRIER was dropped: REMOTE_SPMVM reads
    ``halo_out`` causally concurrent with the comm thread's WAITALL write."""
    from repro.program.ir import SweepOp, SweepProgram

    ops = (
        SweepOp("POST_RECVS"),
        SweepOp("PACK"),
        SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("LOCAL_SPMVM"),
        SweepOp("REMOTE_SPMVM"),  # seeded: no OMP_BARRIER joined the comm thread yet
        SweepOp("OMP_BARRIER"),
    )
    return SweepProgram(scheme="task_mode", ops=ops)


def _main_halo_program():
    """The unsplit FULL_SPMVM moved inside the comm-open region: its
    ``halo_out`` read races the exchange still landing the halo."""
    from repro.program.ir import SweepOp, SweepProgram

    ops = (
        SweepOp("POST_RECVS"),
        SweepOp("PACK"),
        SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("FULL_SPMVM"),  # seeded: full kernel cannot overlap the exchange
        SweepOp("OMP_BARRIER"),
    )
    return SweepProgram(scheme="task_mode", ops=ops)


#: The hand-built programs behind the thread-race fixtures.  Each one is
#: rejected by :func:`repro.program.lint_sweep_program`; the fixtures
#: bypass the lint to show the checker catching the same bug live.
SEEDED_PROGRAMS = {
    "thread-race-missing-barrier": _missing_barrier_program,
    "thread-race-main-halo": _main_halo_program,
}


def _seeded_program_fixture(name: str) -> Callable[[], CheckReport]:
    """Runner executing ``SEEDED_PROGRAMS[name]`` on two observed ranks."""

    def run() -> CheckReport:
        from repro.core.halo import cached_halo_plan
        from repro.core.spmvm import DistributedSpMVM, scatter_vector
        from repro.matrices import get_matrix
        from repro.mpilite.world import PerRank
        from repro.program.exec import execute_sweep

        program = SEEDED_PROGRAMS[name]()
        A = get_matrix("HMeP", "tiny").build_cached()
        plan = cached_halo_plan(A, 2, with_matrices=True)
        x = np.random.default_rng(11).standard_normal(A.nrows)

        def fn(comm, halo) -> np.ndarray:
            with DistributedSpMVM(comm, halo) as engine:
                return execute_sweep(
                    engine, program, scatter_vector(x, plan.partition, comm.rank)
                )

        return _observed_world(name, 2, fn, PerRank(plan.ranks))

    return run


def _thread_race_unlocked_service() -> CheckReport:
    """A rogue thread mutates SolverService queue state bypassing the lock."""
    from repro.matrices import get_matrix
    from repro.serve import SolverService, build_model

    A = get_matrix("HMeP", "tiny").build_cached()
    model = build_model(A, 2, scheme="task_mode")
    x = np.random.default_rng(3).standard_normal(A.nrows)

    def session(checker) -> None:
        with SolverService(model, observer=checker, name="seed-unlocked") as svc:
            with svc.hold():
                reqs = [svc.submit(x) for _ in range(2)]

                def rogue() -> None:
                    # seeded: queue state touched without `with svc._lock` —
                    # no hand-off edge orders this against submit/dispatch
                    svc._pending.rotate()
                    svc._note("pending", "w", "rogue-rotate")

                t = threading.Thread(target=rogue, name="rogue")
                t.start()
                t.join()
            for req in reqs:
                svc.gather(req, timeout=30.0)

    _result, report = run_checked(2, session, context="seed-bug thread-race-unlocked-service")
    return report


def _astlint_fixture(rule_name: str) -> Callable[[], CheckReport]:
    """Wrap one astlint rule fixture as a seed-bug runner."""

    def run() -> CheckReport:
        from repro.check.astlint import lint_fixture

        report = CheckReport(context=f"seed-bug astlint-{rule_name}")
        report.extend(lint_fixture(rule_name))
        return report

    return run


#: name -> (finding kind the fixture must produce, runner)
SEED_BUGS: dict[str, tuple[str, Callable[[], CheckReport]]] = {
    "deadlock-cycle": ("deadlock", _deadlock_cycle),
    "collective-stall": ("deadlock", _collective_stall),
    "message-race": ("message-race", _message_race),
    "leaked-request": ("leaked-request", _leaked_request),
    "plan-lint": ("plan-lint", _plan_lint),
    **{name: ("thread-race", _seeded_program_fixture(name)) for name in SEEDED_PROGRAMS},
    "thread-race-unlocked-service": ("thread-race", _thread_race_unlocked_service),
    "astlint-hot-alloc": ("ast-lint", _astlint_fixture("hot-path-alloc")),
    "astlint-float64": ("ast-lint", _astlint_fixture("float64-discipline")),
    "astlint-lock-discipline": ("ast-lint", _astlint_fixture("lock-discipline")),
    "astlint-comm-vocab": ("ast-lint", _astlint_fixture("comm-thread-vocabulary")),
}


def run_seed_bug(name: str) -> tuple[bool, CheckReport]:
    """Run one fixture; returns (expected detector fired, its report).

    A fixture whose world failed without a diagnosis has not shown its
    detector working, whatever else its report holds.
    """
    if name not in SEED_BUGS:
        raise ValueError(f"unknown seed bug {name!r} (expected one of {sorted(SEED_BUGS)})")
    kind, runner = SEED_BUGS[name]
    report = runner()
    return bool(report.by_kind(kind)) and not report.by_kind("world-failure"), report
