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
* ``COMM_THREAD`` hands the body ops to the engine's parked
  communication thread (:class:`CommThread` — Fig. 4c's team thread,
  started by the engine's first region and kept across sweeps), which
  meets the main path at each body ``OMP_BARRIER``; the main-path
  ``OMP_BARRIER`` after the last of them waits for the region's
  completion token where a spawned thread would be joined.

Numerics are scheme-, plan- and pipelining-independent by
construction: the local part is always accumulated before the remote
part, row by row; the exchange only copies float64 payloads; hoisted
receives and the long-lived comm thread reorder *communication*, never
the kernels.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.program.ir import SweepOp, SweepProgram
from repro.sparse import spmm, spmm_add, spmv, spmv_add

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spmvm import DistributedSpMVM

__all__ = ["CommThread", "UnjoinedCommThreadError", "execute_sweep"]

#: What travels through a :class:`CommThread`'s mailbox besides regions
#: and the ``None`` stop sentinel: one side's arrival at a rendezvous, the
#: main path giving a rendezvous up, a region's completion.
_MEET, _BREAK, _DONE = "meet", "break", "done"


class UnjoinedCommThreadError(RuntimeError):
    """A program finished with its COMM_THREAD region still open.

    The static lint (:func:`repro.program.lint.lint_sweep_program`)
    rejects such programs before they run; this is the runtime twin for
    hand-built programs that bypass the builders — compute ops racing
    an open communication thread is exactly the hazard the thread
    sanitizer (:mod:`repro.check.threads`) reports access by access.
    """


class CommThread(threading.Thread):
    """An engine's communication thread, parked between COMM_THREAD regions.

    The mailbox is a pair of ``queue.SimpleQueue``s, one per direction.
    :meth:`hand_off` puts a region (a callable that never raises) in the
    inbox and :meth:`wait` takes its completion token from the other —
    exactly one per region.  Those two hand-offs are the region's two
    happens-before edges: what a spawn and a join gave when every region
    had a thread of its own.  While a region is open the same two queues
    carry its rendezvous (:meth:`meet`).  Every wait is a blocking
    ``get``: nothing polls, sleeps or wakes on a timeout, and neither
    side can die without posting what the other is waiting for.

    Parked, the thread holds the two queues and nothing else: the region
    (whose closure reaches the engine) is dropped before the token is
    posted, so an engine nobody refers to is collected and its finalizer
    posts the :meth:`stop` sentinel.  A daemon, so an interpreter exiting
    with engines still open does not wait for it.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name=name, daemon=True)
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def run(self) -> None:
        inbox, done = self._inbox, self._done
        while True:
            region = inbox.get()
            if region is None:
                return
            if region is _MEET or region is _BREAK:
                continue  # meant for a region that failed before it got there
            try:
                region()
            finally:
                region = None  # park without a reference to the engine
                done.put(_DONE)

    def hand_off(self, region: Callable[[], None]) -> None:
        """Give *region* to the thread (the first hand-off starts it).

        The first region is queued *before* ``start()``: the new thread
        finds it on its first ``get`` and a one-shot engine pays one
        wake-up, not two.
        """
        self._inbox.put(region)
        if self.ident is None:
            self.start()

    def meet(self, side: str) -> bool:
        """*side*'s (``"main"`` / ``"comm"``) half of a two-party rendezvous.

        Each side posts its arrival to the other and takes the other's.
        ``False`` means the other side is not coming: on the comm thread,
        that the main path gave the region up (:meth:`release`); on the
        main path, that the region has ended — what was taken is its
        completion token, so there is nothing left to :meth:`wait` for.
        """
        if side == "main":
            self._inbox.put(_MEET)
            return self._done.get() is _MEET
        self._done.put(_MEET)
        return self._inbox.get() is _MEET

    def release(self) -> None:
        """Main path: wake a region parked at (or on its way to) a rendezvous."""
        self._inbox.put(_BREAK)

    def wait(self) -> None:
        """Block until the region handed off last has finished."""
        while self._done.get() is not _DONE:
            pass  # the arrival of a region that is being released

    def stop(self) -> None:
        """Post the sentinel that ends the thread once it is parked."""
        self._inbox.put(None)


class _BrokenRendezvous(RuntimeError):
    """Raised inside a region whose main path gave up its rendezvous."""


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
        "views", "depth", "team", "rendezvous_left",
        "rendezvous_total", "error", "san", "domain", "comm_op", "comm_token",
    )

    def __init__(self, views: "list[_SweepView]", depth: int) -> None:
        self.views = views
        self.depth = depth
        #: the engine's comm thread while a COMM_THREAD region is open
        self.team: CommThread | None = None
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
                _hand_off(engine, op, state)
            elif op.kind == "OMP_BARRIER":
                _barrier_main(state)
            else:
                _issue(engine, op, state)
    except BaseException:
        _reap_comm_thread(state)  # never leave the region open on the error path
        raise
    if state.team is not None:
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


def _hand_off(engine: "DistributedSpMVM", op: SweepOp, state: _RunState) -> None:
    """Open a COMM_THREAD region on the engine's parked comm thread.

    Body ``OMP_BARRIER`` ops are rendezvous with the matching main-path
    barriers; the main path counts them at hand-off so it knows which of
    its own barriers rendezvous and which one (the first past the last
    rendezvous) waits for the region's completion token.
    """
    if state.team is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
    state.rendezvous_total = sum(1 for inner in op.body if inner.kind == "OMP_BARRIER")
    state.rendezvous_left = state.rendezvous_total
    team = engine.team_thread()
    token = None
    if state.san is not None:
        # one spawn edge per region: the thread is re-bound to a fresh
        # sanitizer identity whose clock starts from this thread's now
        token = state.san.on_spawn(state.domain, team.name)

    def region() -> None:
        try:
            if token is not None:
                state.san.on_thread_start(state.domain, token)
            rdv = 0
            for inner in op.body:
                if inner.kind != "OMP_BARRIER":
                    _issue(engine, inner, state)
                elif _rendezvous(state, team, "comm", rdv):
                    rdv += 1
                else:
                    raise _BrokenRendezvous(f"main path gave up rendezvous {rdv}")
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main path
            # ending the region is what wakes a main path parked at a
            # rendezvous: it takes the completion token instead
            state.error.append(exc)

    state.comm_op = op
    state.comm_token = token
    team.hand_off(region)
    state.team = team


def _rendezvous(state: _RunState, team: CommThread, side: str, idx: int) -> bool:
    """One two-party rendezvous, with sanitizer hand-off edges; False if
    the other side is not coming (:meth:`CommThread.meet`).

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
    met = team.meet(side)
    if met and state.san is not None:
        state.san.on_acquire(state.domain, f"rdv:{other}:{idx}")
    return met


def _barrier_main(state: _RunState) -> None:
    """A main-path OMP_BARRIER: rendezvous with the comm thread, or wait
    for its region to complete."""
    if state.team is None:
        return  # single compute thread, no region open: a no-op
    if state.rendezvous_left > 0:
        idx = state.rendezvous_total - state.rendezvous_left
        state.rendezvous_left -= 1
        if not _rendezvous(state, state.team, "main", idx):
            # the region died on its way here and is already closed:
            # surface its failure, never deadlock
            state.team = None
            _raise_comm_error(state)
            raise RuntimeError(f"COMM_THREAD region ended before rendezvous {idx}")
        return
    state.team.wait()
    state.team = None
    if state.san is not None and state.comm_token is not None:
        state.san.on_join(state.domain, state.comm_token)
        state.comm_token = None
    _raise_comm_error(state)


def _reap_comm_thread(state: _RunState) -> None:
    """Close the open region: release a comm thread that may park at a
    rendezvous the main path will not reach, and take the completion
    token, which parks it again."""
    if state.team is not None:
        if state.rendezvous_left:
            state.team.release()
        state.team.wait()
        state.team = None


def _raise_comm_error(state: _RunState) -> None:
    real = [e for e in state.error if not isinstance(e, _BrokenRendezvous)]
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
    if view.x.ndim == 2:
        view.y = spmm(engine.halo.A_local, view.x, out=view.out)
    else:
        view.y = spmv(engine.halo.A_local, view.x, out=view.out)


def _remote_spmvm(engine: "DistributedSpMVM", view: _SweepView) -> None:
    halo = engine.halo_view(view.halo_out)
    if view.x.ndim == 2:
        spmm_add(engine.halo.A_remote, halo, out=view.y)
    else:
        spmv_add(engine.halo.A_remote, halo, out=view.y)


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
