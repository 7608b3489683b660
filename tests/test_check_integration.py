"""End-to-end analyzer runs: the one gate, CLI plumbing, simulator teardown."""

import numpy as np
import pytest

from repro.check import (
    ALL_RULES,
    SEED_BUGS,
    CommRecorder,
    ThreadSanitizer,
    check_spmvm,
    run_seed_bug,
    sim_teardown_findings,
)
from repro.check import driver
from repro.cli import main

N_DYNAMIC_RUNS = 12  # 2 plans x 3 schemes x {spmv, spmm k=4}


# ----------------------------------------------------------------------
# the acceptance gate: static pass + all schemes x both plans x both
# widths + the service session, under both observers, zero findings
# ----------------------------------------------------------------------
def test_clean_sweep_all_schemes_both_plans(hmep_tiny, monkeypatch):
    recorders, sanitizers = [], []

    class Recorder(CommRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    class Sanitizer(ThreadSanitizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sanitizers.append(self)

    monkeypatch.setattr(driver, "CommRecorder", Recorder)
    monkeypatch.setattr(driver, "ThreadSanitizer", Sanitizer)
    report = check_spmvm(hmep_tiny, nranks=4, ranks_per_node=2)
    assert report.ok, report.render()
    # one fresh observer of each kind per dynamic run, plus the service
    # row, and every one of them saw its run
    assert len(recorders) == len(sanitizers) == N_DYNAMIC_RUNS + 1
    per_run = [o.finalize().events_observed for o in recorders + sanitizers]
    assert min(per_run) > 0
    assert report.events_observed == sum(per_run)
    # the report says what it covered
    for part in ("plan lint (2 plans)", "program lint (30 programs)", "AST lint",
                 f"{N_DYNAMIC_RUNS} dynamic runs", "1 service session"):
        assert part in report.context


def _seeded_program_run(hmep_tiny, program):
    """``run(recorder=, sanitizer=)`` executing a hand-built program on 2 ranks."""
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM, gather_vector, scatter_vector
    from repro.mpilite.world import PerRank, run_spmd
    from repro.program.exec import execute_sweep

    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = np.random.default_rng(11).standard_normal(hmep_tiny.nrows)

    def run(*, recorder, sanitizer):
        def fn(comm, halo):
            with DistributedSpMVM(comm, halo, sanitizer=sanitizer) as engine:
                return execute_sweep(
                    engine, program, scatter_vector(x, plan.partition, comm.rank)
                )

        return gather_vector(run_spmd(
            2, fn, PerRank(plan.ranks), recv_timeout=10.0, timeout=30.0, recorder=recorder
        ))

    return run, x


def test_both_observers_report_through_the_same_run(hmep_tiny):
    # one function attaches both observers; a seed on either side
    # surfaces through it with its own kind
    from repro.check.fixtures import SEEDED_PROGRAMS
    from repro.program.ir import SweepOp, SweepProgram
    from repro.sparse import spmv

    # sanitizer side: the joining barrier dropped (clean for the recorder)
    run, x = _seeded_program_run(hmep_tiny, SEEDED_PROGRAMS["thread-race-missing-barrier"]())
    report = driver._observed_run("seeded", 2, run, spmv(hmep_tiny, x))
    # (the race is real, so the product may also deviate: a second finding)
    assert "thread-race" in report.kinds()
    assert not report.by_kind("leaked-request")

    # recorder side: WAITALL dropped from no_overlap, so the receives
    # POST_RECVS posted are never completed (one thread: nothing races)
    no_waitall = SweepProgram(scheme="no_overlap", ops=(
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"), SweepOp("LOCAL_SPMVM"),
    ))
    run, x = _seeded_program_run(hmep_tiny, no_waitall)
    local_only = run(recorder=None, sanitizer=None)
    report = driver._observed_run("seeded", 2, run, local_only)
    assert "leaked-request" in report.kinds()
    assert "thread-race" not in report.kinds()


def test_a_failed_rank_is_one_finding_and_the_sweep_finishes(hmep_tiny, monkeypatch):
    from repro.mpilite.world import run_spmd

    calls = []

    def flaky_spmm(A, X, nranks, **kw):
        calls.append((kw["scheme"], kw["comm_plan"]))
        if calls[-1] != ("naive_overlap", "direct"):
            return real_spmm(A, X, nranks, **kw)

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("seeded rank failure")

        return run_spmd(nranks, fn, recorder=kw["recorder"])

    real_spmm = driver.distributed_spmm
    monkeypatch.setattr(driver, "distributed_spmm", flaky_spmm)
    report = check_spmvm(hmep_tiny, nranks=2, ranks_per_node=1)
    assert len(calls) == N_DYNAMIC_RUNS // 2  # every block run started, also after the failure
    (finding,) = report.findings
    for provenance in ("scheme=naive_overlap", "plan=direct", "k=4", "seeded rank failure"):
        assert provenance in finding.message
    assert finding.kind == "leaked-request"  # as at the parent: not a timeout


def test_ctrl_c_is_not_a_finding(hmep_tiny, monkeypatch):
    # the analyzer folds what worlds raise (Exception), never the
    # interpreter's own exits: Ctrl-C stops the sweep where it is
    calls = []

    def interrupted(A, x, nranks, **kw):
        calls.append(kw["scheme"])
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_spmv(A, x, nranks, **kw)

    real_spmv = driver.distributed_spmv
    monkeypatch.setattr(driver, "distributed_spmv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        check_spmvm(hmep_tiny, nranks=2, ranks_per_node=1)
    assert len(calls) == 2  # no later run started

    # ...and so does run_checked, the fixtures' driver
    import repro.mpilite.world

    def interrupted_world(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.mpilite.world, "run_spmd", interrupted_world)
    with pytest.raises(KeyboardInterrupt):
        driver.run_checked(2, lambda comm: None)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cli_check():
    """``(exit code, stdout)`` of one ``repro check`` on HMeP-tiny."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check", "--matrix", "HMeP", "--scale", "tiny"])
    return rc, out.getvalue()


def test_cli_check_clean_run(cli_check):
    rc, out = cli_check
    assert rc == 0
    assert "clean: no findings" in out
    # one report: the dynamic runs and both observers named in its title
    title = out.splitlines()[0]
    for part in ("HMeP/tiny", "12 dynamic runs", "service session",
                 "CommRecorder", "ThreadSanitizer"):
        assert part in title


def test_cli_check_programs(cli_check):
    # the static passes ride in the same report: all 30 builder outputs
    # (scheme x N in 1..3 x pipelining x width), both plans, the AST rules
    title = cli_check[1].splitlines()[0]
    for part in ("plan lint (2 plans)", "program lint (30 programs)", "AST lint"):
        assert part in title


def test_cli_check_fails_on_any_finding(capsys, monkeypatch):
    # the static passes are part of the same report: a dirty tree fails
    # the gate even when every dynamic run is clean
    from repro.check.astlint import lint_fixture

    monkeypatch.setattr(driver, "run_astlint", lambda: lint_fixture("hot-path-alloc"))
    assert main(["check", "--scale", "tiny", "--nranks", "2"]) == 1
    assert "ast-lint" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SEED_BUGS))
def test_cli_seed_bugs_fire(name, capsys):
    assert main(["check", "--seed-bug", name]) == 0
    out = capsys.readouterr().out
    expected_kind = SEED_BUGS[name][0]
    assert f"OK: the {expected_kind} detector fired" in out


def test_cli_unknown_seed_bug_names_the_valid_ones(capsys):
    # SEED_BUGS is the only list of names: the parser carries no copy
    assert main(["check", "--seed-bug", "no-such-bug"]) == 2
    err = capsys.readouterr().err
    assert "no-such-bug" in err
    assert all(name in err for name in SEED_BUGS)


def test_every_astlint_rule_fires_through_a_seed_bug():
    # the seed-bug registry is the rules' only self-test route
    from repro.check.astlint import RULE_FIXTURES

    assert set(RULE_FIXTURES) == {rule.name for rule in ALL_RULES}
    fired_rules = set()
    for name in SEED_BUGS:
        if not name.startswith("astlint-"):
            continue
        fired, report = run_seed_bug(name)
        assert fired, report.render()
        fired_rules |= {f.details["rule"] for f in report.findings}
    assert fired_rules == {rule.name for rule in ALL_RULES}


def test_retired_modes_are_gone(capsys):
    # one gate: the five-mode switchboard and the lint selftest route left
    for argv in (["check", "--lint-only"], ["check", "--programs"], ["check", "--threads"],
                 ["check", "--iterations", "2"], ["lint", "--selftest"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
    import repro.check
    import repro.check.astlint
    import repro.check.threads

    assert not hasattr(repro.check, "check_threads")
    assert not hasattr(repro.check.threads, "check_threads")
    assert not hasattr(repro.check, "selftest")
    assert not hasattr(repro.check.astlint, "selftest")
    with pytest.raises(TypeError):
        check_spmvm(scale="tiny", iterations=2)


def test_cli_check_listed(capsys):
    main(["list"])
    assert "check" in capsys.readouterr().out


# ----------------------------------------------------------------------
# simulator teardown accounting
# ----------------------------------------------------------------------
class _FakeSim:
    def __init__(self, entries):
        self._entries = entries

    def unmatched_requests(self):
        return self._entries


def test_sim_teardown_findings_provenance():
    findings = sim_teardown_findings(_FakeSim([
        ("send", 0, 3, 7, 800),
        ("recv", 2, 1, 9, 0),
    ]))
    assert [f.kind for f in findings] == ["leaked-request", "leaked-request"]
    assert findings[0].ranks == (0,)  # the poster of the send
    assert "tag 7" in findings[0].message
    assert findings[1].ranks == (1,)  # the poster of the recv
    assert "never found a sender" in findings[1].message


def _sim_world():
    from repro.frame import FlowNetwork, Simulator
    from repro.machine.network import FatTree
    from repro.smpi import SimMPI

    sim = Simulator()
    icn = FatTree(latency=1e-6, link_bandwidth=1e9)
    net = FlowNetwork(sim, icn.resources(2))
    return sim, SimMPI(sim, net, icn, [0, 1])


def test_simmpi_reports_unmatched_requests():
    sim, mpi = _sim_world()
    # a rendezvous-sized send nobody receives, and a receive nobody feeds
    mpi.isend(0, 1, 10_000_000, tag=3)
    mpi.irecv(0, 1, 64, tag=4)
    sim.run()
    entries = mpi.unmatched_requests()
    assert ("send", 0, 1, 3, 10_000_000) in entries
    assert ("recv", 1, 0, 4, 64) in entries
    assert sim_teardown_findings(mpi)


def test_simmpi_clean_run_has_no_unmatched_requests():
    sim, mpi = _sim_world()

    def sender(sim):
        yield from mpi.waitall(0, [mpi.isend(0, 1, 4096, tag=1)])

    def receiver(sim):
        yield from mpi.waitall(1, [mpi.irecv(1, 0, 4096, tag=1)])

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert mpi.unmatched_requests() == []
    assert sim_teardown_findings(mpi) == []


# ----------------------------------------------------------------------
# numerics stay identical under instrumentation
# ----------------------------------------------------------------------
def test_recorder_does_not_perturb_results():
    from repro.check import CommRecorder
    from repro.core.spmvm import distributed_spmv
    from repro.matrices import random_sparse
    from repro.sparse.spmv import spmv

    A = random_sparse(120, nnzr=6, seed=5)
    x = np.random.default_rng(5).standard_normal(120)
    plain = distributed_spmv(A, x, 3, scheme="task_mode")
    rec = CommRecorder(3)
    checked = distributed_spmv(A, x, 3, scheme="task_mode", recorder=rec)
    assert np.array_equal(plain, checked)
    assert rec.finalize().ok
    assert np.allclose(checked, spmv(A, x))


def test_no_recorder_means_no_observer_on_the_router():
    # zero-cost contract: the fast path never consults the observer
    # machinery — an uninstrumented world's router and collectives carry
    # none (the `is not None` hook pattern; with one attached they do:
    # tests/test_mpilite_lifecycle.py)
    from repro.mpilite.world import World

    world = World(2)
    assert world.router.observer is None
    assert world.collectives.observer is None
    assert all(c._rec is None for c in world.comms)
