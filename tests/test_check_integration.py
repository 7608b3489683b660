"""End-to-end analyzer runs: clean sweeps, CLI plumbing, simulator teardown."""

import numpy as np
import pytest

from repro.check import SEED_BUGS, check_spmvm, sim_teardown_findings
from repro.cli import main


# ----------------------------------------------------------------------
# the acceptance gate: all schemes x both plans, zero findings
# ----------------------------------------------------------------------
def test_clean_sweep_all_schemes_both_plans():
    report = check_spmvm(matrix="HMeP", scale="tiny", nranks=4, ranks_per_node=2)
    assert report.ok, report.render()
    assert report.events_observed > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_check_clean_run(capsys):
    assert main(["check", "--matrix", "HMeP", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "clean: no findings" in out


def test_cli_check_lint_only(capsys):
    assert main(["check", "--lint-only", "--matrix", "HMeP", "--scale", "tiny"]) == 0
    assert "clean (both plans)" in capsys.readouterr().out


def test_cli_check_programs(capsys):
    assert main(["check", "--programs"]) == 0
    out = capsys.readouterr().out
    assert "sweep-program lint (30 programs): clean" in out
    assert "COMM_THREAD(POST_SENDS, WAITALL)" in out


@pytest.mark.parametrize("name", sorted(SEED_BUGS))
def test_cli_seed_bugs_fire(name, capsys):
    assert main(["check", "--seed-bug", name]) == 0
    out = capsys.readouterr().out
    expected_kind = SEED_BUGS[name][0]
    assert f"OK: the {expected_kind} detector fired" in out


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
