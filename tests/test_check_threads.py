"""The thread half of the checker (repro.check.checker).

Three layers: the per-thread clock algebra in isolation (spawn/join/lock
edges, FastTrack conflict rules, dedup), the sweep interpreter's
instrumentation end to end (clean runs stay clean, the seeded fixtures
fire, the unjoined-comm-thread hard error), and the seed-bug CLI route.
The clean sweep under the checker is ``check_spmvm``'s
(``tests/test_check_integration.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.check import (
    SEED_BUGS,
    Checker,
    TrackedCondition,
    run_seed_bug,
)
from repro.check.checker import _Access, _merge_into, _ordered


# ------------------------------------------------------- clock algebra


def test_clock_partial_order():
    # FastTrack's epoch rule: an access happens before a later event
    # exactly when that event's clock has seen the access's own component
    prior = _Access(tid=0, thread="t0", op="PACK", mode="w", epoch=2)
    assert _ordered(prior, {0: 2})
    assert _ordered(prior, {0: 5, 1: 1})
    assert not _ordered(prior, {0: 1, 1: 9})
    assert not _ordered(prior, {1: 4})  # never heard of thread 0


def test_merge_is_componentwise_max():
    dst = {0: 3, 1: 1}
    _merge_into(dst, {1: 5, 2: 2})
    assert dst == {0: 3, 1: 5, 2: 2}


# --------------------------------------------------- thread primitives


def _run_in_thread(fn) -> None:
    t = threading.Thread(target=fn)
    t.start()
    t.join()


def test_unordered_cross_thread_write_is_a_race():
    checker = Checker(1)
    checker.on_access("d", "buf", "w", op="main-write")
    # a thread the checker never saw spawned: no edge orders it
    _run_in_thread(lambda: checker.on_access("d", "buf", "w", op="rogue-write"))
    report = checker.finalize()
    assert not report.ok
    (f,) = report.findings
    assert f.kind == "thread-race"
    assert f.details["buffer"] == "buf"
    assert set(f.details["ops"]) == {"main-write", "rogue-write"}


def test_read_vs_unordered_write_races_in_either_order():
    for first, second in (("r", "w"), ("w", "r")):
        checker = Checker(1)
        checker.on_access("d", "buf", first, op="main")
        _run_in_thread(lambda s=second: checker.on_access("d", "buf", s, op="other"))
        assert not checker.finalize().ok, f"{first} then {second} stayed silent"


def test_concurrent_reads_do_not_race():
    checker = Checker(1)
    checker.on_access("d", "buf", "r", op="main-read")
    _run_in_thread(lambda: checker.on_access("d", "buf", "r", op="other-read"))
    assert checker.finalize().ok


def test_spawn_edge_orders_parent_writes_before_child():
    checker = Checker(1)
    checker.on_access("d", "buf", "w", op="parent-write")
    token = checker.on_spawn("d", "child")

    def child():
        checker.on_thread_start("d", token)
        checker.on_access("d", "buf", "r", op="child-read")

    _run_in_thread(child)
    assert checker.finalize().ok


def test_join_edge_orders_child_writes_before_parent():
    checker = Checker(1)
    token = checker.on_spawn("d", "child")

    def child():
        checker.on_thread_start("d", token)
        checker.on_access("d", "buf", "w", op="child-write")

    t = threading.Thread(target=child)
    t.start()
    t.join()
    checker.on_join("d", token)
    checker.on_access("d", "buf", "r", op="parent-read")
    assert checker.finalize().ok


def test_without_join_edge_the_same_accesses_race():
    checker = Checker(1)
    token = checker.on_spawn("d", "child")

    def child():
        checker.on_thread_start("d", token)
        checker.on_access("d", "buf", "w", op="child-write")

    t = threading.Thread(target=child)
    t.start()
    t.join()  # OS join happened, but the checker never saw an edge
    checker.on_access("d", "buf", "r", op="parent-read")
    assert not checker.finalize().ok


def test_lock_handoff_orders_accesses():
    checker = Checker(1)
    checker.on_acquire("d", "L")
    checker.on_access("d", "buf", "w", op="main-write")
    checker.on_release("d", "L")

    def other():
        checker.on_acquire("d", "L")
        checker.on_access("d", "buf", "w", op="other-write")
        checker.on_release("d", "L")

    _run_in_thread(other)
    assert checker.finalize().ok


def test_tracked_condition_feeds_handoff_edges():
    checker = Checker(1)
    cond = TrackedCondition(checker, "d", "L")
    with cond:
        checker.on_access("d", "buf", "w", op="main-write")

    def other():
        with cond:
            checker.on_access("d", "buf", "w", op="other-write")

    _run_in_thread(other)
    assert checker.finalize().ok


def test_duplicate_races_are_deduplicated():
    # same (op, thread) pair conflicting repeatedly is one finding; the
    # dedup key includes the thread names, so a *different* rogue thread
    # would be a genuinely new race
    checker = Checker(1)
    checker.on_access("d", "buf", "w", op="main-write")

    def rogue():
        for _ in range(3):  # every read conflicts with the same stale write
            checker.on_access("d", "buf", "r", op="rogue-read")

    _run_in_thread(rogue)
    assert len(checker.finalize().findings) == 1


def test_domains_do_not_cross_talk():
    checker = Checker(1)
    checker.on_access("rank0", "buf", "w", op="main-write")
    _run_in_thread(lambda: checker.on_access("rank1", "buf", "w", op="other-write"))
    assert checker.finalize().ok


def test_spawn_token_is_single_use():
    checker = Checker(1)
    token = checker.on_spawn("d", "child")
    checker.on_thread_start("d", token)
    with pytest.raises(ValueError, match="already-bound"):
        checker.on_thread_start("d", token)
    with pytest.raises(ValueError, match="unknown thread token"):
        checker.on_join("d", 999)


def test_mode_is_validated():
    with pytest.raises(ValueError, match="mode"):
        Checker(1).on_access("d", "buf", "x")


# ------------------------------------------- interpreter instrumentation


@pytest.mark.parametrize("scheme", ("no_overlap", "naive_overlap", "task_mode"))
@pytest.mark.parametrize("plan", ("direct", "node-aware"))
def test_clean_schemes_report_zero_races(hmep_tiny, rng, scheme, plan):
    from repro.core.spmvm import distributed_spmv
    from repro.sparse import spmv

    x = rng.standard_normal(hmep_tiny.nrows)
    checker = Checker(4)
    y = distributed_spmv(
        hmep_tiny, x, 4, scheme=scheme,
        comm_plan=plan, ranks_per_node=2, observer=checker,
    )
    report = checker.finalize()
    assert report.ok, report.render()
    assert report.events_observed > 0
    np.testing.assert_allclose(y, spmv(hmep_tiny, x), rtol=1e-10)


def test_task_mode_observes_comm_thread_spawn(hmep_tiny, rng):
    # the overlap scheme must exercise the spawn/join protocol: the
    # checker sees more than one thread per rank domain
    from repro.core.spmvm import distributed_spmv

    checker = Checker(2)
    distributed_spmv(hmep_tiny, rng.standard_normal(hmep_tiny.nrows), 2,
                     scheme="task_mode", observer=checker)
    names = {st.name for st in checker._by_tid.values()}
    assert any(n.startswith("comm-thread-") for n in names), names


def test_no_sanitizer_means_no_hooks_in_the_interpreter(hmep_tiny, rng):
    # zero-cost contract: an engine on an unobserved world carries no
    # observer, so every `is not None` instrumentation site is skipped
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM
    from repro.mpilite.comm import CollectiveState, Comm
    from repro.mpilite.router import Router
    from repro.sparse import spmv

    halo = cached_halo_plan(hmep_tiny, 1, with_matrices=True).ranks[0]
    x = rng.standard_normal(hmep_tiny.nrows)
    with DistributedSpMVM(Comm(0, Router(1), CollectiveState(1)), halo) as engine:
        assert engine.comm.observer is None
        y = engine.multiply(x, "task_mode")
    np.testing.assert_allclose(y, spmv(hmep_tiny, x), rtol=1e-10)


# ------------------------------------------------- seeded-bug fixtures


@pytest.mark.parametrize("name", [
    "thread-race-missing-barrier",
    "thread-race-main-halo",
    "thread-race-unlocked-service",
])
def test_seeded_thread_races_fire(name):
    fired, report = run_seed_bug(name)
    assert fired, report.render()
    assert all(f.kind == "thread-race" for f in report.findings)


def test_missing_barrier_fixture_names_the_racing_ops():
    _fired, report = run_seed_bug("thread-race-missing-barrier")
    pairs = {frozenset(f.details["ops"]) for f in report.findings}
    assert frozenset({"REMOTE_SPMVM", "WAITALL"}) in pairs


def test_seed_bug_registry_covers_thread_kinds():
    kinds = {kind for kind, _fn in SEED_BUGS.values()}
    assert "thread-race" in kinds
    assert "ast-lint" in kinds


# ------------------------------------- unjoined comm thread (satellite)


def _seeded_program(join_barrier: bool):
    # with join_barrier this is exactly build_sweep's task_mode lowering:
    # the barrier between LOCAL and REMOTE joins the comm thread *before*
    # the halo is consumed.  Without it the program both races and ends
    # with the region still open.
    from repro.program.ir import SweepOp, SweepProgram

    ops = [
        SweepOp("POST_RECVS"),
        SweepOp("PACK"),
        SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("LOCAL_SPMVM"),
    ]
    if join_barrier:
        ops.append(SweepOp("OMP_BARRIER"))
    ops.append(SweepOp("REMOTE_SPMVM"))
    return SweepProgram(scheme="task_mode", ops=tuple(ops))


def test_unjoined_comm_thread_is_a_hard_error(hmep_tiny, rng):
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM, scatter_vector
    from repro.mpilite.world import PerRank, run_spmd
    from repro.program.exec import UnjoinedCommThreadError, execute_sweep

    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)

    def fn(comm, halo):
        engine = DistributedSpMVM(comm, halo)
        return execute_sweep(
            engine, _seeded_program(join_barrier=False),
            scatter_vector(x, plan.partition, comm.rank),
        )

    with pytest.raises(Exception) as excinfo:
        run_spmd(2, fn, PerRank(plan.ranks), recv_timeout=10.0, timeout=30.0)
    root = excinfo.value
    while root.__cause__ is not None:
        root = root.__cause__
    assert isinstance(root, UnjoinedCommThreadError)
    # provenance: the offending region's body ops and the missing join
    assert "COMM_THREAD(POST_SENDS,WAITALL)" in str(root)
    assert "OMP_BARRIER" in str(root)


def test_same_program_with_join_barrier_runs(hmep_tiny, rng):
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM, scatter_vector
    from repro.mpilite.world import PerRank, run_spmd
    from repro.program.exec import execute_sweep
    from repro.sparse import spmv

    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = rng.standard_normal(hmep_tiny.nrows)

    def fn(comm, halo):
        engine = DistributedSpMVM(comm, halo)
        return execute_sweep(
            engine, _seeded_program(join_barrier=True),
            scatter_vector(x, plan.partition, comm.rank),
        )

    parts = run_spmd(2, fn, PerRank(plan.ranks), recv_timeout=10.0, timeout=30.0)
    np.testing.assert_allclose(np.concatenate(parts), spmv(hmep_tiny, x), rtol=1e-10)


# ------------------------------------------------------------------ CLI


@pytest.mark.parametrize("name", ["thread-race-missing-barrier", "astlint-hot-alloc"])
def test_cli_seeded_thread_fixtures_exit_zero(name, capsys):
    from repro.cli import main

    rc = main(["check", "--seed-bug", name])
    assert rc == 0
    assert "detector fired" in capsys.readouterr().out
