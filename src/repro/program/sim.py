"""Simulation backend: interpreting a sweep program as a simulator process.

:func:`sweep_process` runs one :class:`~repro.program.ir.SweepProgram`
inside the discrete-event simulator: compute ops become memory-bus
flows priced by the rank's :class:`~repro.core.costs.PhaseCosts`,
communication ops go through the simulated MPI with its progress
semantics, and a ``COMM_THREAD`` region becomes a spawned subprocess
holding the MPI progress gate open inside ``Waitall`` — joined, as on
the real machine, at the main-path ``OMP_BARRIER`` that follows it.

When the rank context carries a trace, every executed op writes one
:class:`~repro.frame.trace.Span` when it ends.  Its actor is
``rank{r}``, or ``rank{r}:comm`` inside a ``COMM_THREAD`` body; its
label is the phase label of
:data:`~repro.program.ir.SIM_PHASE_LABELS` for a compute op,
``MPI_Waitall`` for ``WAITALL`` and the op kind otherwise; its args are
the op kind and the program's
:meth:`~repro.program.ir.SweepProgram.program_id`.  An ``OMP_BARRIER``
span that joins a region includes the wait for the comm thread.  Every
:mod:`repro.obs` view (Gantt, phase windows, per-op costs, barrier
metrics) reads these spans.

The communication ops mirror the real backend: the rank context's
:class:`~repro.comm.sim.SimExchange` replays its plan's per-channel
messages (and relay duties, if the plan has any).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.frame.events import SimEvent
from repro.program.ir import SIM_PHASE_LABELS, SweepOp, SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schemes import RankContext

__all__ = ["sweep_process"]


class _SimState:
    """Interpreter state: the sweep's requests + the open region, if any."""

    __slots__ = ("recvs", "sends", "comm_finished")

    def __init__(self) -> None:
        self.recvs: list = []
        self.sends: list = []
        self.comm_finished: SimEvent | None = None


#: Span label of each op kind that is not its own label.
_LABELS = {**SIM_PHASE_LABELS, "WAITALL": "MPI_Waitall"}


def _record_span(
    ctx: "RankContext", pid: str, op: SweepOp, t0: float, *, in_comm_thread: bool = False
) -> None:
    """The span of one op that started at *t0* and ends now (no-op
    without a trace)."""
    if ctx.trace is not None:
        actor = f"rank{ctx.rank}:comm" if in_comm_thread else f"rank{ctx.rank}"
        ctx.trace.record(
            actor, _LABELS.get(op.kind, op.kind), t0, ctx.sim.now, op=op.kind, program=pid
        )


def sweep_process(
    ctx: "RankContext",
    program: SweepProgram,
    tag: int,
    *,
    op_log: list[str] | None = None,
) -> Generator:
    """Sub-generator: one sweep of *program* on rank *ctx*.

    The sweep's messages carry *tag* (pass the iteration number when
    looping programs back to back) so drifting ranks cannot mismatch
    sweeps.  ``op_log`` receives the program's signature tokens in
    issue order — the simulated half of the golden cross-backend
    comparison.
    """
    state = _SimState()
    pid = program.program_id()
    for op in program.ops:
        if op_log is not None:
            op_log.extend(op.tokens())
        if op.kind == "COMM_THREAD":
            _spawn_comm_thread(ctx, op, state, tag, pid)
        elif op.kind == "OMP_BARRIER":
            t0 = ctx.sim.now
            if state.comm_finished is not None:
                # this barrier joins the region: compute threads wait
                # until the exchange is complete (Fig. 4c)
                yield state.comm_finished
                state.comm_finished = None
            yield ctx.sim.timeout(ctx.barrier_seconds)
            _record_span(ctx, pid, op, t0)
        else:
            yield from _run_op(ctx, op, state, tag, pid, in_comm_thread=False)
    if state.comm_finished is not None:  # defensive: lint rejects such programs
        yield state.comm_finished


def _run_op(
    ctx: "RankContext",
    op: SweepOp,
    state: _SimState,
    tag: int,
    pid: str,
    *,
    in_comm_thread: bool,
) -> Generator:
    kind = op.kind
    t0 = ctx.sim.now
    if kind in SIM_PHASE_LABELS:
        yield from ctx.compute(SIM_PHASE_LABELS[kind], _compute_cost(ctx, kind))
    elif kind == "POST_RECVS":
        state.recvs = ctx.comm.post_receives(ctx, tag)
    elif kind == "POST_SENDS":
        state.sends = ctx.comm.post_sends(ctx, tag)
    elif kind == "WAITALL":
        yield from ctx.mpi.waitall(ctx.rank, state.recvs + state.sends)
    else:  # pragma: no cover - ir.py validates kinds
        raise ValueError(f"simulation backend cannot execute op {kind!r}")
    _record_span(ctx, pid, op, t0, in_comm_thread=in_comm_thread)


def _spawn_comm_thread(
    ctx: "RankContext", op: SweepOp, state: _SimState, tag: int, pid: str
) -> None:
    if state.comm_finished is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
    finished: SimEvent = ctx.sim.event()

    def comm_thread() -> Generator:
        # Fig. 4c: the dedicated thread executes MPI calls only, sitting
        # in Waitall with the progress gate held open while the compute
        # threads run the local spMVM
        for inner in op.body:
            yield from _run_op(ctx, inner, state, tag, pid, in_comm_thread=True)
        finished.succeed()

    ctx.sim.spawn(comm_thread(), name=f"rank{ctx.rank}-comm")
    state.comm_finished = finished


def _compute_cost(ctx: "RankContext", kind: str) -> float:
    costs = ctx.costs
    return {
        "PACK": costs.gather,
        "LOCAL_SPMVM": costs.local_spmv,
        "REMOTE_SPMVM": costs.remote_spmv,
        "FULL_SPMVM": costs.full_spmv,
    }[kind]
