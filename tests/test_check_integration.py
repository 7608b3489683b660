"""End-to-end analyzer runs: the one gate, CLI plumbing, simulator teardown."""

import numpy as np
import pytest

from repro.check import (
    ALL_RULES,
    SEED_BUGS,
    Checker,
    check_spmvm,
    run_seed_bug,
)
from repro.check import driver
from repro.cli import main

N_DYNAMIC_RUNS = 12  # 2 plans x 3 schemes x {spmv, spmm k=4}


# ----------------------------------------------------------------------
# the acceptance gate: static pass + all schemes x both plans x both
# widths + the service session, each under a fresh checker, zero findings
# ----------------------------------------------------------------------
def test_clean_sweep_all_schemes_both_plans(hmep_tiny, monkeypatch):
    checkers = []

    class Recording(Checker):
        def __init__(self, nranks):
            super().__init__(nranks)
            checkers.append(self)

    monkeypatch.setattr(driver, "Checker", Recording)
    report = check_spmvm(hmep_tiny, nranks=4, ranks_per_node=2)
    assert report.ok, report.render()
    # one fresh checker per dynamic run, plus the service row, and every
    # one of them saw both halves of its run: rank traffic and threads
    assert len(checkers) == N_DYNAMIC_RUNS + 1
    assert all(c.sends and c._by_tid for c in checkers)
    per_run = [c.finalize().events_observed for c in checkers]
    assert min(per_run) > 0
    assert report.events_observed == sum(per_run)
    # the report says what it covered
    for part in ("plan lint (2 plans)", "program lint (6 programs)", "AST lint",
                 f"{N_DYNAMIC_RUNS} dynamic runs", "1 service session"):
        assert part in report.context


def _seeded_program_run(hmep_tiny, program):
    """``run(checker)`` executing a hand-built program on 2 ranks."""
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM, gather_vector, scatter_vector
    from repro.mpilite.world import PerRank, run_spmd
    from repro.program.exec import execute_sweep

    plan = cached_halo_plan(hmep_tiny, 2, with_matrices=True)
    x = np.random.default_rng(11).standard_normal(hmep_tiny.nrows)

    def run(checker):
        def fn(comm, halo):
            with DistributedSpMVM(comm, halo) as engine:
                return execute_sweep(
                    engine, program, scatter_vector(x, plan.partition, comm.rank)
                )

        return gather_vector(run_spmd(
            2, fn, PerRank(plan.ranks), recv_timeout=10.0, timeout=30.0, observer=checker
        ))

    return run, x


def test_both_observers_report_through_the_same_run(hmep_tiny):
    # one checker watches both halves; a seed on either side surfaces
    # through the same run_checked with its own kind
    from repro.check.fixtures import SEEDED_PROGRAMS
    from repro.program.ir import SweepOp, SweepProgram

    # thread side: the joining barrier dropped (clean rank traffic)
    run, _x = _seeded_program_run(hmep_tiny, SEEDED_PROGRAMS["thread-race-missing-barrier"]())
    _y, report = driver.run_checked(2, run, context="seeded")
    assert "thread-race" in report.kinds()
    assert not report.by_kind("leaked-request")

    # rank side: WAITALL dropped from no_overlap, so the receives
    # POST_RECVS posted are never completed (one thread: nothing races)
    no_waitall = SweepProgram(scheme="no_overlap", ops=(
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"), SweepOp("LOCAL_SPMVM"),
    ))
    run, _x = _seeded_program_run(hmep_tiny, no_waitall)
    _y, report = driver.run_checked(2, run, context="seeded")
    assert "leaked-request" in report.kinds()
    assert "thread-race" not in report.kinds()


def test_a_checker_observes_one_run(hmep_tiny):
    # a reused checker kept the first run's finished ranks, so the second,
    # healthy run's first blocked receive read as a deadlock ('rank(s) 0
    # already finished'); now the second world refuses it at construction
    from repro.core.spmvm import distributed_spmv
    from repro.mpilite.world import World, run_spmd
    from repro.serve import SolverService, build_model

    calls = []

    def ping_pong(comm):
        calls.append(comm.rank)
        peer = 1 - comm.rank
        if comm.rank == 0:
            comm.send(comm.recv(peer, tag=64) + 1, peer, tag=64)
        else:
            comm.send(np.arange(3.0), peer, tag=64)
            return comm.recv(peer, tag=64)

    checker = Checker(2)
    out = run_spmd(2, ping_pong, recv_timeout=10.0, timeout=30.0, observer=checker)
    assert np.array_equal(out[1], np.arange(1.0, 4.0)) and len(calls) == 2
    refusal = "a Checker observes one run"
    with pytest.raises(ValueError, match=refusal):
        run_spmd(2, ping_pong, recv_timeout=10.0, timeout=30.0, observer=checker)
    assert len(calls) == 2  # refused before any rank started
    x = np.ones(hmep_tiny.nrows)
    with pytest.raises(ValueError, match=refusal):
        distributed_spmv(hmep_tiny, x, 2, observer=checker)
    with pytest.raises(ValueError, match=refusal):
        SolverService(build_model(hmep_tiny, 2), observer=checker)
    with pytest.raises(ValueError, match=refusal):
        World(2, observer=checker)
    report = checker.finalize()  # the run it did observe, untouched
    assert report.ok and report.events_observed > 0


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

        return run_spmd(nranks, fn, observer=kw["observer"])

    real_spmm = driver.distributed_spmm
    monkeypatch.setattr(driver, "distributed_spmm", flaky_spmm)
    report = check_spmvm(hmep_tiny, nranks=2, ranks_per_node=1)
    assert len(calls) == N_DYNAMIC_RUNS // 2  # every block run started, also after the failure
    (finding,) = report.findings
    for provenance in ("scheme=naive_overlap", "plan=direct", "k=4", "seeded rank failure"):
        assert provenance in finding.message
    assert finding.kind == "world-failure"  # a crash, not a detector diagnosis


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
    def interrupted_world(checker):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        driver.run_checked(2, interrupted_world)


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
    # one report: the dynamic runs and their observer named in its title
    title = out.splitlines()[0]
    for part in ("HMeP/tiny", "12 dynamic runs", "service session", "fresh Checker"):
        assert part in title


def test_cli_check_programs(cli_check):
    # the static passes ride in the same report: all 30 builder outputs
    # (scheme x N in 1..3 x pipelining x width), both plans, the AST rules
    title = cli_check[1].splitlines()[0]
    for part in ("plan lint (2 plans)", "program lint (6 programs)", "AST lint"):
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

    assert not hasattr(repro.check, "check_threads")
    assert not hasattr(repro.check, "selftest")
    assert not hasattr(repro.check.astlint, "selftest")
    with pytest.raises(TypeError):
        check_spmvm(scale="tiny", iterations=2)


def test_cli_check_listed(capsys):
    main(["list"])
    assert "check" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the simulator's side of teardown: a matched exchange leaves no request
# waiting for a partner
# ----------------------------------------------------------------------
def test_simmpi_clean_run_has_no_unmatched_requests():
    from repro.frame import FlowNetwork, Simulator
    from repro.machine.network import FatTree
    from repro.smpi import SimMPI

    sim = Simulator()
    icn = FatTree(latency=1e-6, link_bandwidth=1e9)
    mpi = SimMPI(sim, FlowNetwork(sim, icn.resources(2)), icn, [0, 1])
    requests = [mpi.isend(0, 1, 4096, tag=1), mpi.irecv(1, 0, 4096, tag=1)]

    def rank(r, req):
        yield from mpi.waitall(r, [req])

    procs = [sim.spawn(rank(r, req)) for r, req in enumerate(requests)]
    sim.run()
    assert all(req.done.triggered for req in requests)
    assert all(p.done.triggered for p in procs)


# ----------------------------------------------------------------------
# numerics stay identical under instrumentation
# ----------------------------------------------------------------------
def test_recorder_does_not_perturb_results():
    from repro.core.spmvm import distributed_spmv
    from repro.matrices import random_sparse
    from repro.sparse.spmv import spmv

    A = random_sparse(120, nnzr=6, seed=5)
    x = np.random.default_rng(5).standard_normal(120)
    plain = distributed_spmv(A, x, 3, scheme="task_mode")
    checker = Checker(3)
    checked = distributed_spmv(A, x, 3, scheme="task_mode", observer=checker)
    assert np.array_equal(plain, checked)
    assert checker.finalize().ok
    assert np.allclose(checked, spmv(A, x))


def test_no_recorder_means_no_observer_on_the_router():
    # zero-cost contract: the fast path never consults the observer
    # machinery — an uninstrumented world's router and collectives carry
    # none (the `is not None` hook pattern; with one attached they do:
    # tests/test_mpilite_lifecycle.py)
    from repro.mpilite.world import World

    world = World(2)
    assert world.observer is None
    assert world.router.observer is None
    assert world.collectives.observer is None
    assert all(c.observer is None for c in world.comms)
