"""The three hybrid execution schemes as simulation processes (Fig. 4).

Each MPI rank becomes one simulator process; its compute phases are
flows on the memory buses of its locality domains and its messages run
through the simulated MPI (with its progress semantics).  The three
schemes differ only in *ordering and concurrency* of the same phases:

* vector mode w/o overlap (Fig. 4a): gather → exchange → full spMVM;
* vector mode w/ naive overlap (Fig. 4b): gather → post nonblocking
  exchange → local spMVM → Waitall → remote spMVM.  Whether any bytes
  move during the local spMVM is decided by the MPI progress model —
  with 2010-era semantics they do not;
* task mode (Fig. 4c): a communication-thread subprocess executes the
  exchange inside ``Waitall`` (holding the MPI progress gate open) while
  the compute threads run gather/local-spMVM; OpenMP-style barriers
  separate the phases.

That ordering is not hand-rolled here: each scheme's phase sequence is
a sweep program from :func:`repro.program.build_sweep` — the same
program the mpilite backend executes on real data — interpreted by
:func:`repro.program.sweep_process` against this rank's context.  This
module keeps what is simulator-specific: :class:`RankContext` (the
rank's view of machine, costs, halo, and trace) and the iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.comm.sim import SimExchange
from repro.core.costs import PhaseCosts
from repro.core.halo import RankHalo
from repro.frame.core import Simulator
from repro.frame.resources import FlowNetwork
from repro.frame.trace import TraceRecorder
from repro.machine.affinity import RankPlacement
from repro.program.build import PROGRAM_SCHEMES, build_sweep
from repro.program.sim import sweep_process
from repro.smpi.api import SimMPI
from repro.util import check_in

__all__ = ["RankContext", "rank_process"]

#: Cost of one OpenMP-style barrier among a rank's threads (seconds).
OMP_BARRIER_SECONDS = 2.0e-6


@dataclass
class RankContext:
    """Everything one simulated rank needs."""

    sim: Simulator
    net: FlowNetwork
    mpi: SimMPI
    placement: RankPlacement
    halo: RankHalo
    costs: PhaseCosts
    #: replay driver of the rank's comm plan (repro.comm), direct or node-aware
    comm: SimExchange
    trace: TraceRecorder | None = None
    barrier_seconds: float = OMP_BARRIER_SECONDS
    #: right-hand sides per sweep; halo messages carry k columns each
    block_k: int = 1
    finish_times: list[float] = field(default_factory=list)

    @property
    def rank(self) -> int:
        """MPI rank id."""
        return self.placement.rank

    def compute(self, label: str, traffic: float) -> Generator:
        """Sub-generator: run *traffic* bytes of memory work on this rank's
        compute threads (split across its locality domains)."""
        if traffic <= 0:
            return
        total_threads = max(1, self.placement.n_compute_threads)
        flows = []
        for dom, threads in self.placement.domains:
            if threads <= 0:
                continue
            share = traffic * threads / total_threads
            flows.append(
                self.net.start_flow(
                    share,
                    {("membus", *dom): 1.0},
                    weight=float(threads),
                    label=f"r{self.rank}:{label}",
                )
            )
        yield self.sim.all_of([f.done for f in flows])


def rank_process(
    ctx: RankContext,
    scheme: str,
    iterations: int,
    *,
    op_log: list[str] | None = None,
) -> Generator:
    """The full life of one simulated rank: *iterations* back-to-back sweeps.

    Builds the scheme's program once (the same
    :func:`repro.program.build_sweep` output the real backend executes)
    and interprets it per iteration.  Each iteration's messages are
    tagged with its number so successive sweeps cannot be confused;
    ranks drift freely (no global barrier), as in the real benchmark
    loop.  ``op_log`` receives the executed op sequence of every
    iteration in issue order (the simulated half of the golden
    cross-backend comparison).
    """
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    program = build_sweep(scheme, block_k=ctx.block_k)
    for it in range(iterations):
        yield from sweep_process(ctx, program, it, op_log=op_log)
        ctx.finish_times.append(ctx.sim.now)
