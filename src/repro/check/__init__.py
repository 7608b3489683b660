"""repro.check: communication correctness analysis for mpilite worlds.

Two observers and three static passes, one gate (see DESIGN.md §9):

* :class:`CommRecorder` watches the *ranks* of a running world (vector
  clocks, wait-for graph, buffer checksums) and diagnoses deadlocks,
  message races, buffer hazards and leaked requests with full
  rank/tag/peer provenance; :func:`run_checked` runs any SPMD function
  under it;
* :class:`ThreadSanitizer` (:mod:`repro.check.threads`) orders the
  *threads inside one rank* with per-thread vector clocks and reports
  causally concurrent conflicting buffer accesses;
* :func:`lint_comm_plan` proves plan-level invariants (volume
  conservation, exactly-once relaying, phase ordering),
  :func:`lint_sweep_program` the sweep IR's (request lifecycle,
  comm-thread region balance, barrier placement), and
  :func:`run_astlint` (:mod:`repro.check.astlint`, ``repro lint``) the
  repo's own — hot-path allocation, float64 discipline, service lock
  discipline, comm-thread vocabulary — before anything runs.

:func:`check_spmvm` (``repro check``) is the gate: the static passes,
then every scheme x comm plan x {vector, block} and one service session,
each run under both observers at once.  :data:`SEED_BUGS` are the
seeded-bug fixtures demonstrating every detector firing.
"""

from repro.check.astlint import (
    ALL_RULES,
    lint_fixture,
    lint_source,
    run_astlint,
)
from repro.check.driver import check_spmvm, run_checked, sim_teardown_findings
from repro.check.findings import (
    FINDING_KINDS,
    CheckFailure,
    CheckReport,
    Finding,
    raise_if_findings,
)
from repro.check.fixtures import SEED_BUGS, run_seed_bug
from repro.check.lint import lint_comm_plan
from repro.check.races import analyze_races
from repro.check.recorder import CommRecorder, DeadlockError
from repro.check.threads import (
    ThreadRaceError,
    ThreadSanitizer,
    TrackedCondition,
)
from repro.program.lint import lint_sweep_program, lint_sweep_programs

__all__ = [
    "FINDING_KINDS",
    "Finding",
    "CheckReport",
    "CheckFailure",
    "raise_if_findings",
    "CommRecorder",
    "DeadlockError",
    "analyze_races",
    "lint_comm_plan",
    "lint_sweep_program",
    "lint_sweep_programs",
    "run_checked",
    "check_spmvm",
    "sim_teardown_findings",
    "SEED_BUGS",
    "run_seed_bug",
    "ThreadSanitizer",
    "ThreadRaceError",
    "TrackedCondition",
    "ALL_RULES",
    "run_astlint",
    "lint_source",
    "lint_fixture",
]
