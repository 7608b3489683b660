"""Real-execution backend: interpreting a sweep program on mpilite data.

:func:`execute_sweep` runs one single-sweep
:class:`~repro.program.ir.SweepProgram` on a
:class:`~repro.core.spmvm.DistributedSpMVM` engine and returns this
rank's slice of ``A @ x``.  The engine owns the long-lived state
(communicator, halo bookkeeping, preallocated buffers, sub-matrices);
the interpreter owns the phase ordering — which it takes entirely from
the program, never from the scheme name.  Programs chaining several
sweeps (``build_sweep(scheme, n_sweeps > 1)``) are the simulator's
(:mod:`repro.program.sim`): on this backend they never beat N single
sweeps (EXPERIMENTS.md, "The chain's verdict"), so it refuses them.

One interpreter covers every case:

* spmv and spmm are the ``x.ndim == 1`` / ``x.ndim == 2`` cases of the
  same op handlers (every buffer fill and kernel call is axis-0 based),
* the four communication ops are the engine's four phase methods,
  whatever plan (direct or node-aware) the engine compiled,
* ``COMM_THREAD`` hands the body ops to the engine's parked
  communication thread (:class:`CommThread` — Fig. 4c's team thread,
  started by the engine's first region and kept across sweeps); the
  main-path ``OMP_BARRIER`` that follows waits for the region's
  completion token where a spawned thread would be joined.

Numerics are scheme- and plan-independent by construction: the local
part is always accumulated before the remote part, row by row; the
exchange only copies float64 payloads.
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
    had a thread of its own.  Every wait is a blocking ``get``: nothing
    polls, sleeps or wakes on a timeout, and the thread cannot end a
    region without posting the token the main path is waiting for.

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
            try:
                region()
            finally:
                region = None  # park without a reference to the engine
                done.put(None)

    def hand_off(self, region: Callable[[], None]) -> None:
        """Give *region* to the thread (the first hand-off starts it).

        The first region is queued *before* ``start()``: the new thread
        finds it on its first ``get`` and a one-shot engine pays one
        wake-up, not two.
        """
        self._inbox.put(region)
        if self.ident is None:
            self.start()

    def wait(self) -> None:
        """Block until the region handed off last has finished."""
        self._done.get()

    def stop(self) -> None:
        """Post the sentinel that ends the thread once it is parked."""
        self._inbox.put(None)


class _SweepState:
    """One sweep's data, shared between the main path and the comm thread:
    input, buffers, requests, result — and the open region, if any."""

    __slots__ = (
        "x", "halo_out", "send_bufs", "recvs", "y", "out",
        "team", "error", "san", "domain", "comm_op", "comm_token",
    )

    def __init__(self, x: np.ndarray, halo_out: np.ndarray, send_bufs, out) -> None:
        self.x = x
        self.halo_out = halo_out
        self.send_bufs = send_bufs
        self.recvs: list | None = None
        self.y: np.ndarray | None = None
        #: caller's buffer for the result (None: the kernel allocates it)
        self.out: np.ndarray | None = out
        #: the engine's comm thread while a COMM_THREAD region is open
        self.team: CommThread | None = None
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
#: x and halo_out into y.  POST_RECVS also *writes* halo_out: the MPI
#: library owns the receive buffer from the post on.  OMP_BARRIER is
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


def _check_single_sweep(program: SweepProgram) -> None:
    """Refuse what only the simulator interprets: chained sweeps and the
    body rendezvous that pace a comm thread across them."""
    if program.n_sweeps != 1:
        raise ValueError(
            f"{program.label}: the real backend runs single-sweep programs; "
            f"chained sweeps are a simulator study (simulate_from_plan(n_sweeps=...), "
            f"`repro trace --sweeps`)"
        )
    for op in program.ops:
        for inner in op.body:
            if inner.kind == "OMP_BARRIER":
                raise ValueError(
                    f"{program.label}: OMP_BARRIER inside a COMM_THREAD body is a "
                    f"rendezvous only the simulator interprets; on the real backend "
                    f"a region runs from its hand-off to the main-path barrier that joins it"
                )


def execute_sweep(
    engine: "DistributedSpMVM",
    program: SweepProgram,
    x: np.ndarray,
    *,
    op_log: list[str] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run the single-sweep *program* on *engine* with input *x* (1-D or
    ``(n, k)``); returns this rank's slice of ``A @ x``.

    ``op_log``, when given, receives the program's signature tokens in
    issue order (comm-thread bodies at the spawn point) — the hook the
    golden cross-backend test uses to compare real execution against the
    simulated one.  ``out``, when given, is the buffer the result is
    computed into (shaped like *x*, not overlapping it).
    """
    _check_single_sweep(program)  # before the engine is touched
    state = _SweepState(x, *engine.sweep_buffers(x), out)
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
    if state.y is None:
        raise RuntimeError(
            f"program for scheme {program.scheme!r} finished without "
            f"computing a result (no LOCAL_SPMVM/FULL_SPMVM op ran)"
        )
    return state.y


def _issue(engine: "DistributedSpMVM", op: SweepOp, state: _SweepState) -> None:
    """Run one op, noting its buffer accesses when a sanitizer is attached."""
    san = state.san
    if san is not None:
        reads, writes = _FOOTPRINT[op.kind]
        domain, token = state.domain, op.token
        for buf in reads:
            san.on_access(domain, buf, "r", op=token)
        for buf in writes:
            san.on_access(domain, buf, "w", op=token)
    _OP_HANDLERS[op.kind](engine, state)


def _hand_off(engine: "DistributedSpMVM", op: SweepOp, state: _SweepState) -> None:
    """Open a COMM_THREAD region on the engine's parked comm thread."""
    if state.team is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
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
            for inner in op.body:
                _issue(engine, inner, state)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main path
            state.error.append(exc)

    state.comm_op = op
    state.comm_token = token
    team.hand_off(region)
    state.team = team


def _barrier_main(state: _SweepState) -> None:
    """A main-path OMP_BARRIER: wait for the open region to complete."""
    if state.team is None:
        return  # single compute thread, no region open: a no-op
    state.team.wait()
    state.team = None
    if state.san is not None and state.comm_token is not None:
        state.san.on_join(state.domain, state.comm_token)
        state.comm_token = None
    _raise_comm_error(state)


def _reap_comm_thread(state: _SweepState) -> None:
    """Close the open region: take its completion token, which parks the
    thread again."""
    if state.team is not None:
        state.team.wait()
        state.team = None


def _raise_comm_error(state: _SweepState) -> None:
    if state.error:
        raise RuntimeError(
            f"communication thread failed: {state.error[0]!r}"
        ) from state.error[0]


# ----------------------------------------------------------------------
# op handlers
# ----------------------------------------------------------------------
def _post_recvs(engine: "DistributedSpMVM", state: _SweepState) -> None:
    state.recvs = engine.post_halo_receives()


def _pack(engine: "DistributedSpMVM", state: _SweepState) -> None:
    engine.fill_send_buffers(state.x, state.send_bufs)


def _post_sends(engine: "DistributedSpMVM", state: _SweepState) -> None:
    engine.send_buffers(state.send_bufs)


def _waitall(engine: "DistributedSpMVM", state: _SweepState) -> None:
    engine.complete_halo_receives(state.recvs, state.halo_out)


def _local_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    if state.x.ndim == 2:
        state.y = spmm(engine.halo.A_local, state.x, out=state.out)
    else:
        state.y = spmv(engine.halo.A_local, state.x, out=state.out)


def _remote_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    halo = engine.halo_view(state.halo_out)
    if state.x.ndim == 2:
        spmm_add(engine.halo.A_remote, halo, out=state.y)
    else:
        spmv_add(engine.halo.A_remote, halo, out=state.y)


def _full_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    # the unsplit Fig. 4a kernel, lowered to local-then-remote over the
    # split-stored matrices — the same arithmetic order as the split
    # schemes, which is what makes all schemes bit-identical
    _local_spmvm(engine, state)
    _remote_spmvm(engine, state)


_OP_HANDLERS = {
    "POST_RECVS": _post_recvs,
    "PACK": _pack,
    "POST_SENDS": _post_sends,
    "WAITALL": _waitall,
    "LOCAL_SPMVM": _local_spmvm,
    "REMOTE_SPMVM": _remote_spmvm,
    "FULL_SPMVM": _full_spmvm,
}
