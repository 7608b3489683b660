"""Simulation backend: interpreting a sweep program as a simulator process.

:func:`sweep_process` runs one :class:`~repro.program.ir.SweepProgram`
— the op stream of its N chained sweeps — inside the discrete-event
simulator: compute ops become memory-bus flows priced by the rank's
:class:`~repro.core.costs.PhaseCosts` (emitting the phase labels of
:data:`~repro.program.ir.SIM_PHASE_LABELS`, so every :mod:`repro.obs`
analysis keeps working unchanged), communication ops go through the
simulated MPI with its progress semantics and per-sweep request sets,
and a ``COMM_THREAD`` region becomes a spawned subprocess holding the
MPI progress gate open inside ``Waitall`` — paced against the main path
by two-party rendezvous at the body's ``OMP_BARRIER`` ops and joined, as
on the real machine, at the main-path ``OMP_BARRIER`` after the last of
them.

When the rank context carries a trace, every executed op additionally
emits one ``op_cost`` event (category ``program``) keyed on the
program's :meth:`~repro.program.ir.SweepProgram.program_id` and the
op's sweep index — the per-op cost breakdown ``repro trace --per-op``
aggregates.

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


class _SimRendezvous:
    """Two-party rendezvous between the main path and the comm thread.

    The first arriver parks on a fresh event; the second succeeds it and
    passes straight through.  Resets itself, so one instance serves
    every rendezvous of a region, in order.
    """

    __slots__ = ("sim", "_waiting")

    def __init__(self, sim) -> None:
        self.sim = sim
        self._waiting: SimEvent | None = None

    def wait(self) -> Generator:
        if self._waiting is None:
            ev = self.sim.event()
            self._waiting = ev
            yield ev
        else:
            ev, self._waiting = self._waiting, None
            ev.succeed()


class _SimState:
    """Interpreter state: per-sweep requests + the open region's pacing."""

    __slots__ = ("recvs", "sends", "comm_finished", "rdv", "rendezvous_left")

    def __init__(self) -> None:
        self.recvs: dict[int, list] = {}
        self.sends: dict[int, list] = {}
        self.comm_finished: SimEvent | None = None
        #: exists only while a region whose body contains OMP_BARRIER
        #: ops is open
        self.rdv: _SimRendezvous | None = None
        self.rendezvous_left = 0


def _emit_op_cost(
    ctx: "RankContext", pid: str, op: SweepOp, t0: float
) -> None:
    """One ``op_cost`` attribution event (no-op without a trace)."""
    if ctx.trace is not None:
        ctx.trace.emit(
            ctx.sim.now, f"rank{ctx.rank}", "op_cost", "program",
            op=op.kind, sweep=op.sweep, program=pid,
            seconds=ctx.sim.now - t0,
        )


def sweep_process(
    ctx: "RankContext",
    program: SweepProgram,
    base: int,
    *,
    op_log: list[str] | None = None,
) -> Generator:
    """Sub-generator: the N chained sweeps of *program* on rank *ctx*.

    *base* is the global sweep number of the program's sweep 0 (pass
    ``iteration * n_sweeps`` when looping programs back to back); sweep
    ``s``'s messages are tagged ``base + s`` so drifting ranks cannot
    mismatch sweeps.  ``op_log`` receives the program's signature
    tokens in issue order — the simulated half of the golden
    cross-backend comparison.
    """
    state = _SimState()
    pid = program.program_id()
    for op in program.ops:
        if op_log is not None:
            op_log.extend(op.tokens())
        if op.kind == "COMM_THREAD":
            _spawn_comm_thread(ctx, op, state, base, pid)
        elif op.kind == "OMP_BARRIER":
            t0 = ctx.sim.now
            if state.comm_finished is not None and state.rendezvous_left > 0:
                state.rendezvous_left -= 1
                yield from state.rdv.wait()
            elif state.comm_finished is not None:
                # past the last rendezvous: this barrier joins the
                # region — compute threads wait until the exchange is
                # complete (Fig. 4c)
                yield state.comm_finished
                state.comm_finished = None
            yield from ctx.omp_barrier()
            _emit_op_cost(ctx, pid, op, t0)
        else:
            yield from _run_op(ctx, op, state, base, pid, in_comm_thread=False)
    if state.comm_finished is not None:  # defensive: lint rejects such programs
        yield state.comm_finished


def _run_op(
    ctx: "RankContext",
    op: SweepOp,
    state: _SimState,
    base: int,
    pid: str,
    *,
    in_comm_thread: bool,
) -> Generator:
    kind = op.kind
    sweep = base + op.sweep
    t0 = ctx.sim.now
    if kind in SIM_PHASE_LABELS:
        yield from ctx.compute(SIM_PHASE_LABELS[kind], _compute_cost(ctx, kind))
    elif kind == "POST_RECVS":
        state.recvs[op.sweep] = ctx.comm.post_receives(ctx, sweep)
    elif kind == "POST_SENDS":
        state.sends[op.sweep] = ctx.comm.post_sends(ctx, sweep)
    elif kind == "WAITALL":
        reqs = state.recvs.pop(op.sweep, []) + state.sends.pop(op.sweep, [])
        yield from ctx.mpi.waitall(ctx.rank, reqs)
        ctx.record(":comm" if in_comm_thread else "", "MPI_Waitall", t0)
    else:  # pragma: no cover - ir.py validates kinds
        raise ValueError(f"simulation backend cannot execute op {kind!r}")
    _emit_op_cost(ctx, pid, op, t0)


def _spawn_comm_thread(
    ctx: "RankContext", op: SweepOp, state: _SimState, base: int, pid: str
) -> None:
    if state.comm_finished is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
    finished: SimEvent = ctx.sim.event()
    state.rendezvous_left = sum(1 for inner in op.body if inner.kind == "OMP_BARRIER")
    state.rdv = _SimRendezvous(ctx.sim) if state.rendezvous_left else None

    def comm_thread() -> Generator:
        # Fig. 4c: the dedicated thread executes MPI calls only, sitting
        # in Waitall with the progress gate held open while the compute
        # threads run the local spMVM — and, when its body spans several
        # sweeps, pacing itself against them at its OMP_BARRIER points
        for inner in op.body:
            if inner.kind == "OMP_BARRIER":
                yield from state.rdv.wait()
            else:
                yield from _run_op(ctx, inner, state, base, pid, in_comm_thread=True)
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
