"""repro.check: communication correctness analysis for mpilite worlds.

One observer and three static passes, one gate (see DESIGN.md §9):

* :class:`Checker` (:mod:`repro.check.checker`) is the per-run
  observer, attached at ``World(observer=)``: it watches the *ranks*
  (wait-for graph, messages in flight, open requests) and diagnoses
  deadlocks, leaked requests and unconsumed messages with full
  rank/tag/peer provenance, and it orders the *threads inside one rank*
  with per-thread vector clocks and reports causally concurrent
  conflicting buffer accesses; :func:`run_checked` runs anything under a
  fresh one;
* :func:`lint_comm_plan` proves plan-level invariants (volume
  conservation, exactly-once relaying, phase ordering),
  :func:`lint_sweep_program` the sweep IR's (request lifecycle,
  comm-thread region balance, barrier placement), and
  :func:`run_astlint` (:mod:`repro.check.astlint`, ``repro lint``) the
  repo's own — hot-path allocation, float64 discipline, service lock
  discipline, comm-thread vocabulary — before anything runs.

:func:`check_spmvm` (``repro check``) is the gate: the static passes,
then every scheme x comm plan x {vector, block} and one service session,
each run under a fresh checker and its product compared with the
serial kernel's.  :data:`SEED_BUGS` are the seeded-bug fixtures
demonstrating every detector firing.
"""

from repro.check.astlint import (
    ALL_RULES,
    lint_fixture,
    lint_source,
    run_astlint,
)
from repro.check.checker import Checker, DeadlockError, TrackedCondition
from repro.check.driver import check_spmvm, run_checked
from repro.check.findings import FINDING_KINDS, CheckReport, Finding
from repro.check.fixtures import SEED_BUGS, run_seed_bug
from repro.check.lint import lint_comm_plan
from repro.program.lint import lint_sweep_program, lint_sweep_programs

__all__ = [
    "FINDING_KINDS",
    "Finding",
    "CheckReport",
    "Checker",
    "DeadlockError",
    "TrackedCondition",
    "lint_comm_plan",
    "lint_sweep_program",
    "lint_sweep_programs",
    "run_checked",
    "check_spmvm",
    "SEED_BUGS",
    "run_seed_bug",
    "ALL_RULES",
    "run_astlint",
    "lint_source",
    "lint_fixture",
]
