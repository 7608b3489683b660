"""repro.program: the backend-neutral sweep IR for the Fig. 4 schemes.

One :func:`build_sweep` program per scheme is the single source of truth
for the paper's phase ordering (gather, halo exchange, local spMVM,
waitall, remote spMVM).  A :class:`SweepProgram` is one spMVM, as data.
Two interpreters execute it:

* :func:`execute_sweep` — real execution on mpilite data (the engine
  behind :class:`~repro.core.spmvm.DistributedSpMVM`),
* :func:`sweep_process` — a timed simulator process (the engine behind
  :func:`~repro.core.runner.simulate_spmvm`),

and :func:`lint_sweep_program` proves a program's structural invariants
(request lifecycle, comm-thread region balance, barrier placement) on a
happens-before model before either backend touches it.  See DESIGN.md
§10.
"""

from repro.program.build import (
    PROGRAM_SCHEMES,
    all_sweep_programs,
    build_sweep,
    cached_sweep_program,
)
from repro.program.exec import execute_sweep
from repro.program.ir import (
    COMM_OPS,
    COMPUTE_OPS,
    OP_KINDS,
    SIM_PHASE_LABELS,
    SweepOp,
    SweepProgram,
)
from repro.program.lint import lint_sweep_program, lint_sweep_programs
from repro.program.sim import sweep_process

__all__ = [
    "OP_KINDS",
    "COMPUTE_OPS",
    "COMM_OPS",
    "SIM_PHASE_LABELS",
    "SweepOp",
    "SweepProgram",
    "PROGRAM_SCHEMES",
    "build_sweep",
    "cached_sweep_program",
    "all_sweep_programs",
    "execute_sweep",
    "sweep_process",
    "lint_sweep_program",
    "lint_sweep_programs",
]
