"""Real-execution backend: interpreting a sweep program on mpilite data.

:func:`execute_sweep` runs one :class:`~repro.program.ir.SweepProgram`
on a :class:`~repro.core.spmvm.DistributedSpMVM` engine and returns this
rank's slices of the chain ``[A x, ..., A^N x]`` — one slice for the
plain ``n_sweeps = 1`` spMVM.  The engine owns the long-lived state
(communicator, halo bookkeeping, preallocated buffers, sub-matrices);
the interpreter owns the phase ordering — which it takes entirely from
the program, never from the scheme name — plus sweep chaining, the
halo-slot mapping and the comm thread's rendezvous protocol.

One interpreter covers every case:

* spmv and spmm are the ``x.ndim == 1`` / ``x.ndim == 2`` cases of the
  same op handlers (every buffer fill and kernel call is axis-0 based),
* the four communication ops are the engine's four phase methods,
  whatever plan (direct or node-aware) the engine compiled,
* ``COMM_THREAD`` spawns a real thread executing the body ops — the
  Fig. 4c code structure — which meets the main path at each body
  ``OMP_BARRIER`` and is joined at the main-path ``OMP_BARRIER`` after
  the last of them.

Numerics are scheme-, plan- and pipelining-independent by
construction: the local part is always accumulated before the remote
part, row by row; the exchange only copies float64 payloads; hoisted
receives and the long-lived comm thread reorder *communication*, never
the kernels.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.program.ir import SweepOp, SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spmvm import DistributedSpMVM

__all__ = ["UnjoinedCommThreadError", "execute_sweep"]

#: Rendezvous patience for the comm thread (seconds); generous — a
#: rendezvous only times out when the other side is dead.
_RENDEZVOUS_TIMEOUT = 60.0


class UnjoinedCommThreadError(RuntimeError):
    """A program finished with its COMM_THREAD region still open.

    The static lint (:func:`repro.program.lint.lint_sweep_program`)
    rejects such programs before they run; this is the runtime twin for
    hand-built programs that bypass the builders — compute ops racing
    an open communication thread is exactly the hazard the thread
    sanitizer (:mod:`repro.check.threads`) reports access by access.
    """


class _SweepView:
    """One sweep's data: input, buffers of its halo slot, requests, result."""

    __slots__ = ("x", "halo_out", "send_bufs", "recvs", "y", "out")

    def __init__(self, x: np.ndarray | None, halo_out: np.ndarray, send_bufs) -> None:
        self.x = x
        self.halo_out = halo_out
        self.send_bufs = send_bufs
        self.recvs: list | None = None
        self.y: np.ndarray | None = None
        #: caller's buffer for the result (None: the kernel allocates it)
        self.out: np.ndarray | None = None


class _RunState:
    """Whole-program state shared between main and comm thread.

    Sweep ``s``'s view points its ``halo_out``/``send_bufs`` into slot
    ``s % depth`` of the engine's buffer ring.
    """

    __slots__ = (
        "views", "depth", "thread", "barrier", "rendezvous_left",
        "rendezvous_total", "error", "san", "domain", "comm_op", "comm_token",
    )

    def __init__(self, views: "list[_SweepView]", depth: int) -> None:
        self.views = views
        self.depth = depth
        self.thread: threading.Thread | None = None
        #: two-party rendezvous; exists only while a region whose body
        #: contains OMP_BARRIER ops is open
        self.barrier: threading.Barrier | None = None
        self.rendezvous_left = 0
        self.rendezvous_total = 0
        self.error: list[BaseException] = []
        #: opt-in thread sanitizer (repro.check.threads); None costs nothing
        self.san = None
        self.domain = ""
        self.comm_op: SweepOp | None = None  # open COMM_THREAD, for provenance
        self.comm_token: int | None = None  # sanitizer spawn token


#: Buffers each op kind (reads, writes) — the access model the thread
#: sanitizer checks.  PACK publishes send_bufs from x (no other
#: communication op reads x); POST_SENDS sends them; WAITALL completes
#: the requests, finishes and forwards a leader's relay aggregates
#: (which live in send_bufs) and lands halo_out; the compute side reads
#: x and halo_out into y.  POST_RECVS also *writes* its halo slot: the
#: MPI library owns the receive buffer from the post on, which is
#: exactly the access that races a remote kernel still reading that
#: slot when the double-buffer contract is violated.  OMP_BARRIER is
#: pure synchronisation.
_FOOTPRINT = {
    "POST_RECVS": ((), ("recvs", "halo_out")),
    "PACK": (("x",), ("send_bufs",)),
    "POST_SENDS": (("send_bufs",), ()),
    "WAITALL": (("recvs",), ("send_bufs", "halo_out")),
    "LOCAL_SPMVM": (("x",), ("y",)),
    "REMOTE_SPMVM": (("halo_out",), ("y",)),
    "FULL_SPMVM": (("x", "halo_out"), ("y",)),
}


def _buffer_name(buf: str, sweep: int, slot: int) -> str:
    """Sanitizer name of *buf* as sweep *sweep* sees it.

    Ring buffers carry their slot (``halo_out#1``) and per-sweep data
    its sweep (``recvs@2``, ``y@2``; a chained input *is* the previous
    result), so the sanitizer sees cross-sweep overlap on the *same
    physical buffer*.
    """
    if buf == "x":
        return f"y@{sweep - 1}" if sweep else "x@0"
    if buf in ("halo_out", "send_bufs"):
        return f"{buf}#{slot}"
    return f"{buf}@{sweep}"


def execute_sweep(
    engine: "DistributedSpMVM",
    program: SweepProgram,
    x: np.ndarray,
    *,
    op_log: list[str] | None = None,
    out: np.ndarray | None = None,
) -> "list[np.ndarray]":
    """Run *program* on *engine* with input *x* (1-D or ``(n, k)``).

    Returns this rank's slices of the matrix-powers chain
    ``[A x, A² x, ..., A^N x]``, one per sweep (each sweep past the
    first consumed the previous sweep's result — valid because the
    operator is square and row and column partitions coincide).

    ``op_log``, when given, receives the program's signature tokens in
    issue order (comm-thread bodies at the spawn point) — the hook the
    golden cross-backend test uses to compare real execution against the
    simulated one.  ``out``, when given, is the buffer the last sweep's
    result is computed into (shaped like *x*, not overlapping it).
    """
    depth = program.halo_depth
    ring = engine.sweep_ring(x, depth)
    # sweep 0 reads x; every later sweep's input is bound when it first runs
    views = [_SweepView(None if s else x, *ring[s % depth]) for s in range(program.n_sweeps)]
    views[-1].out = out
    state = _RunState(views, depth)
    san = getattr(engine, "sanitizer", None)
    if san is not None:
        state.san = san
        state.domain = f"rank{engine.comm.rank}"
    try:
        for op in program.ops:
            if op_log is not None:
                op_log.extend(op.tokens())
            if op.kind == "COMM_THREAD":
                _spawn_comm_thread(engine, op, state)
            elif op.kind == "OMP_BARRIER":
                _barrier_main(state)
            else:
                _issue(engine, op, state)
    except BaseException:
        _reap_comm_thread(state)  # never leak the worker on the error path
        raise
    if state.thread is not None:
        # compute ops ran concurrently with an open COMM_THREAD region —
        # the hazard the thread sanitizer reports access by access
        _reap_comm_thread(state)
        _raise_comm_error(state)
        body = ",".join(inner.token for inner in state.comm_op.body)
        raise UnjoinedCommThreadError(
            f"rank {engine.comm.rank}: program for scheme {program.scheme!r} "
            f"finished with its COMM_THREAD({body}) region still open — no "
            f"main-path OMP_BARRIER joined the communication thread"
        )
    _raise_comm_error(state)
    for s, view in enumerate(state.views):
        if view.y is None:
            raise RuntimeError(
                f"program for scheme {program.scheme!r} finished without "
                f"computing sweep {s}'s result (no LOCAL_SPMVM/FULL_SPMVM op ran)"
            )
    return [view.y for view in state.views]


def _issue(engine: "DistributedSpMVM", op: SweepOp, state: _RunState) -> None:
    """Run one op against its sweep's view, noting its buffer accesses
    when a sanitizer is attached."""
    view = state.views[op.sweep]
    if view.x is None:
        # chained input: sweep s consumes sweep s-1's result; the
        # previous kernel is ordered before every consumer (lint), so
        # the binding is always resolved by the time a reader runs
        view.x = state.views[op.sweep - 1].y
    san = state.san
    if san is not None:
        reads, writes = _FOOTPRINT[op.kind]
        domain, token, sweep = state.domain, op.token, op.sweep
        slot = sweep % state.depth
        for buf in reads:
            san.on_access(domain, _buffer_name(buf, sweep, slot), "r", op=token)
        for buf in writes:
            san.on_access(domain, _buffer_name(buf, sweep, slot), "w", op=token)
    _OP_HANDLERS[op.kind](engine, view)


def _spawn_comm_thread(engine: "DistributedSpMVM", op: SweepOp, state: _RunState) -> None:
    """Start the comm thread of a COMM_THREAD region.

    Body ``OMP_BARRIER`` ops are rendezvous with the matching main-path
    barriers; the main path counts them at spawn so it knows which of
    its own barriers rendezvous and which one (the first past the last
    rendezvous) joins the thread.
    """
    if state.thread is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
    state.rendezvous_total = sum(1 for inner in op.body if inner.kind == "OMP_BARRIER")
    state.rendezvous_left = state.rendezvous_total
    state.barrier = threading.Barrier(2) if state.rendezvous_total else None
    name = f"comm-thread-{engine.comm.rank}"
    token = None
    if state.san is not None:
        token = state.san.on_spawn(state.domain, name)

    def worker() -> None:
        try:
            if token is not None:
                state.san.on_thread_start(state.domain, token)
            rdv = 0
            for inner in op.body:
                if inner.kind == "OMP_BARRIER":
                    _rendezvous(state, "comm", rdv)
                    rdv += 1
                else:
                    _issue(engine, inner, state)
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            state.error.append(exc)
            if state.barrier is not None:
                state.barrier.abort()  # wake a main thread parked at a rendezvous

    state.comm_op = op
    state.comm_token = token
    state.thread = threading.Thread(target=worker, name=name)
    state.thread.start()


def _rendezvous(state: _RunState, side: str, idx: int) -> None:
    """One two-party barrier rendezvous, with sanitizer hand-off edges.

    Each side releases its own token before the physical wait and
    acquires the other side's after it — a bidirectional happens-before
    edge.  The tokens carry the rendezvous ordinal *idx*: with one token
    per side a thread that races ahead to the NEXT rendezvous would
    overwrite its release clock before the peer's acquire reads it,
    forging a happens-before edge that hides real races.
    """
    other = "comm" if side == "main" else "main"
    if state.san is not None:
        state.san.on_release(state.domain, f"rdv:{side}:{idx}")
    state.barrier.wait(timeout=_RENDEZVOUS_TIMEOUT)
    if state.san is not None:
        state.san.on_acquire(state.domain, f"rdv:{other}:{idx}")


def _barrier_main(state: _RunState) -> None:
    """A main-path OMP_BARRIER: rendezvous with, or join, the comm thread."""
    if state.thread is None:
        return  # single compute thread, no comm thread open: a no-op
    if state.rendezvous_left > 0:
        idx = state.rendezvous_total - state.rendezvous_left
        state.rendezvous_left -= 1
        try:
            _rendezvous(state, "main", idx)
        except threading.BrokenBarrierError:
            # the comm thread died (it aborts the barrier on error) or
            # timed out: surface its failure, never deadlock
            state.thread.join()
            state.thread = None
            _raise_comm_error(state)
            raise
        return
    state.thread.join()
    state.thread = None
    if state.san is not None and state.comm_token is not None:
        state.san.on_join(state.domain, state.comm_token)
        state.comm_token = None
    _raise_comm_error(state)


def _reap_comm_thread(state: _RunState) -> None:
    """Release a worker parked at a rendezvous and wait for it to exit."""
    if state.thread is not None:
        if state.barrier is not None:
            state.barrier.abort()
        state.thread.join()


def _raise_comm_error(state: _RunState) -> None:
    real = [e for e in state.error
            if not isinstance(e, threading.BrokenBarrierError)]
    if real:
        raise RuntimeError(
            f"communication thread failed: {real[0]!r}"
        ) from real[0]


# ----------------------------------------------------------------------
# op handlers
# ----------------------------------------------------------------------
def _post_recvs(engine: "DistributedSpMVM", view: _SweepView) -> None:
    view.recvs = engine.post_halo_receives()


def _pack(engine: "DistributedSpMVM", view: _SweepView) -> None:
    engine.fill_send_buffers(view.x, view.send_bufs)


def _post_sends(engine: "DistributedSpMVM", view: _SweepView) -> None:
    engine.send_buffers(view.send_bufs)


def _waitall(engine: "DistributedSpMVM", view: _SweepView) -> None:
    engine.complete_halo_receives(view.recvs, view.halo_out)


def _local_spmvm(engine: "DistributedSpMVM", view: _SweepView) -> None:
    # compute ops dispatch through the engine's registered kernel spec
    # (repro.sparse.registry); the operators were format-converted once
    # at engine construction
    kernel = engine.kernel
    if view.x.ndim == 2:
        view.y = kernel.spmm(engine.A_local_op, view.x, out=view.out)
    else:
        view.y = kernel.spmv(engine.A_local_op, view.x, out=view.out)


def _remote_spmvm(engine: "DistributedSpMVM", view: _SweepView) -> None:
    kernel = engine.kernel
    halo = engine.halo_view(view.halo_out)
    if view.x.ndim == 2:
        kernel.spmm_add(engine.A_remote_op, halo, out=view.y)
    else:
        kernel.spmv_add(engine.A_remote_op, halo, out=view.y)


def _full_spmvm(engine: "DistributedSpMVM", view: _SweepView) -> None:
    # the unsplit Fig. 4a kernel, lowered to local-then-remote over the
    # split-stored matrices — the same arithmetic order as the split
    # schemes, which is what makes all schemes bit-identical
    _local_spmvm(engine, view)
    _remote_spmvm(engine, view)


_OP_HANDLERS = {
    "POST_RECVS": _post_recvs,
    "PACK": _pack,
    "POST_SENDS": _post_sends,
    "WAITALL": _waitall,
    "LOCAL_SPMVM": _local_spmvm,
    "REMOTE_SPMVM": _remote_spmvm,
    "FULL_SPMVM": _full_spmvm,
}
