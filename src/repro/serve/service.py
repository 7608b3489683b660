"""SolverService: a persistent worker pool serving spMVM requests.

The serve-many half of build-once/serve-many.  One
:class:`SolverService` owns one long-lived mpilite
:class:`~repro.mpilite.world.World` whose per-rank worker threads hold
their :class:`~repro.core.spmvm.DistributedSpMVM` engines — built from
a :class:`~repro.serve.model.BuiltModel` — for the lifetime of the
service.  Requests stream through an async ticket API
(:meth:`~SolverService.submit` / :meth:`~SolverService.poll` /
:meth:`~SolverService.gather`); :meth:`~SolverService.solve` is the
synchronous convenience wrapper.

**Coalescing policy** (DESIGN.md §12): *at most one batch in flight*,
and a batch is formed at exactly two moments — by the submitting thread
when the service is idle, and by the rank that lands the last part of
a batch, for everything that queued up while it was being swept (up to
``max_batch`` columns: one spmm sweep, one halo exchange amortised over
the whole batch).  No thread stands between a request and the workers,
so a request to an idle service starts at once and which requests share
a batch is decided by what was queued when the previous one landed, not
by which thread woke first.  Under load, batches widen automatically;
an idle service degenerates to per-request spmv with zero added
latency.  Because spmm is column-wise bit-identical to spmv,
coalescing never changes anyone's answer.

**One buffer per request**: ``submit`` copies the right-hand sides
once; every rank overwrites its own rows of that copy with the product
when its part of the batch is done (the halo values its peers needed
were packed out of it before any kernel ran), and ``gather`` hands the
same array back.  The ranks gather and sweep into scratch buffers they
keep, so serving a request allocates nothing but that copy — its cost
does not depend on what the allocator has just given back to the
kernel.

**Lifecycle**: all waiting is condition-variable based — an idle
service burns no CPU.  A worker failure mid-request aborts the world
(:meth:`~repro.mpilite.world.World.abort`), which wakes every peer
blocked in the halo exchange immediately with a
:class:`~repro.mpilite.router.WorldAbortedError` carrying rank/peer/tag
provenance — not after the 60 s collective timeout — and fails the
batch's tickets with a descriptive :class:`ServiceError`.
:meth:`~SolverService.close` drains by default; ``drain=False`` cancels
queued requests (the in-flight batch always completes or fails).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.mpilite.world import open_world

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.model import BuiltModel

__all__ = ["ServeRequest", "ServiceClosedError", "ServiceError", "SolverService"]


class ServiceError(RuntimeError):
    """A request failed inside the service (worker fault, aborted world)."""


class ServiceClosedError(ServiceError):
    """The service was closed (or had failed) when the request needed it."""


class ServeRequest:
    """Ticket for one submitted right-hand side (or block of them).

    Returned by :meth:`SolverService.submit`; resolved by the worker
    pool.  ``latency`` is submit-to-completion wall time in seconds.
    """

    __slots__ = ("_error", "_event", "_result", "completed_at", "id", "k", "squeeze", "submitted_at")

    def __init__(self, rid: int, k: int, squeeze: bool) -> None:
        self.id = rid
        self.k = k
        self.squeeze = squeeze
        self.submitted_at = time.perf_counter()
        self.completed_at: float | None = None
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: Exception | None = None

    @property
    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._event.is_set()

    @property
    def latency(self) -> float | None:
        """Submit-to-completion seconds, or ``None`` while pending."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def _complete(self, result: np.ndarray | None, error: Exception | None) -> None:
        self.completed_at = time.perf_counter()
        self._result = result
        self._error = error
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"ServeRequest(id={self.id}, k={self.k}, {state})"


class _Batch:
    """One coalesced spmm sweep: its requests and their buffers."""

    __slots__ = ("blocks", "entries", "error", "remaining", "seq", "width")

    def __init__(self, seq: int, entries: list, blocks: list, nranks: int, width: int) -> None:
        self.seq = seq
        self.entries = entries  # [(ServeRequest, its response array)]
        #: the requests' private ``(nrows, k)`` buffers, in column order:
        #: right-hand sides going in, products coming out
        self.blocks = blocks
        self.remaining = nranks
        self.error: Exception | None = None
        self.width = width


class _Scratch:
    """A buffer one rank keeps between batches.

    Calling it gives a C-contiguous ``(rows, width)`` view; the storage
    grows to the widest batch seen and is never given back.
    """

    __slots__ = ("_flat", "_rows")

    def __init__(self, rows: int) -> None:
        self._rows = rows
        self._flat = np.empty(0)

    def __call__(self, width: int) -> np.ndarray:
        size = self._rows * width
        if self._flat.size < size:
            self._flat = np.empty(size)
        return self._flat[:size].reshape(self._rows, width)


class SolverService:
    """A persistent solver pool over one :class:`BuiltModel`.

    Threads: one worker per rank (runs the model's sweep program on its
    engine), daemons parked on a condition variable when idle; under
    task mode each worker's engine parks one communication thread
    beside it, which the worker stops when it exits.  Batches
    are formed by whoever makes one possible — a submitter, the rank
    that lands a batch, ``hold`` on release — under the service lock.
    """

    def __init__(
        self,
        model: "BuiltModel",
        *,
        max_batch: int = 16,
        recv_timeout: float | None = None,
        recorder=None,
        sanitizer=None,
        name: str = "solver",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.model = model
        self.max_batch = max_batch
        self.name = name
        self.world = open_world(model.nranks, recv_timeout=recv_timeout, recorder=recorder)
        # opt-in thread sanitizer (repro.check.threads): when attached,
        # the service lock becomes a TrackedCondition (lock hand-off
        # happens-before edges) and shared-state touches are noted via
        # _note(); when absent, _tsan is None and nothing here costs a
        # single extra branch beyond the `is not None` checks
        self._tsan = sanitizer
        self._tsan_domain = f"service:{name}"
        if sanitizer is not None:
            from repro.check.threads import TrackedCondition

            self._lock = TrackedCondition(sanitizer, self._tsan_domain, "service-lock")
        else:
            self._lock = threading.Condition()
        #: (request, response array, its (nrows, k) view)
        self._pending: deque[tuple[ServeRequest, np.ndarray, np.ndarray]] = deque()
        self._inboxes: list[deque] = [deque() for _ in range(model.nranks)]
        self._inflight: _Batch | None = None
        self._state = "running"  # running -> closing -> closed | failed
        self._fail_reason: str | None = None
        self._hold = 0
        self._next_id = 0
        self._seq = 0
        self._batch_widths: list[int] = []
        self._requests_served = 0
        self._columns_served = 0
        self._fault = set()
        #: each rank's engine, set by its worker once built; close()
        #: reads it only to name a comm thread that failed to stop
        self._engines: list = [None] * model.nranks
        self._workers = [
            threading.Thread(
                target=self._worker, args=(r,), name=f"{name}-rank{r}", daemon=True
            )
            for r in range(model.nranks)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray) -> ServeRequest:
        """Enqueue ``y = A @ x`` and return its ticket immediately.

        *x* may be 1-D (one RHS) or 2-D ``(nrows, k)`` (a block of *k*
        right-hand sides; the result keeps the shape).  The data is
        copied, so the caller may reuse its buffer.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"x must be 1-D or 2-D, got ndim={x.ndim}")
        if x.shape[0] != self.model.matrix.nrows:
            raise ValueError(
                f"x has {x.shape[0]} rows, model expects {self.model.matrix.nrows}"
            )
        # the request's one buffer: right-hand sides now, the response
        # once every rank has overwritten its rows
        response = np.array(x, dtype=np.float64, order="C")
        data = response if response.ndim == 2 else response.reshape(-1, 1)
        with self._lock:
            if self._state != "running":
                raise ServiceClosedError(self._closed_message_locked("submit"))
            req = ServeRequest(self._next_id, data.shape[1], x.ndim == 1)
            self._next_id += 1
            self._pending.append((req, response, data))
            self._note("pending", "w", "submit")
            self._dispatch_locked()
        return req

    def poll(self, request: ServeRequest) -> bool:
        """Whether *request* has completed (never blocks)."""
        return request.done

    def gather(self, request: ServeRequest, timeout: float | None = None) -> np.ndarray:
        """Block until *request* completes and return its result.

        Raises the request's failure (a :class:`ServiceError`) if the
        service could not serve it, or :class:`TimeoutError` if
        *timeout* seconds pass first.
        """
        if not request._event.wait(timeout):
            raise TimeoutError(
                f"request {request.id} not served within {timeout} s "
                f"(service {self.name!r} is {self.state})"
            )
        if request._error is not None:
            raise request._error
        return request._result

    def solve(self, x: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Synchronous ``submit`` + ``gather``."""
        return self.gather(self.submit(x), timeout=timeout)

    @contextlib.contextmanager
    def hold(self):
        """Pause dispatch while the block runs (requests still queue).

        Lets callers — the request-stream driver and the coalescing
        tests — stage several submissions and have them provably land
        in coalesced batches instead of the first one starting alone.
        """
        with self._lock:
            self._hold += 1
        try:
            yield self
        finally:
            with self._lock:
                self._hold -= 1
                self._dispatch_locked()

    @property
    def state(self) -> str:
        """``running``, ``closing``, ``closed`` or ``failed``."""
        # the service lock is a Condition over an RLock, so reading the
        # state while already holding the lock is fine
        with self._lock:
            return self._state

    @property
    def stats(self) -> dict:
        """Service counters: requests, columns, batches, batch widths."""
        with self._lock:
            self._note("counters", "r", "stats")
            widths = tuple(self._batch_widths)
            state = self._state
            requests = self._requests_served
            columns = self._columns_served
        return {
            "state": state,
            "requests": requests,
            "columns": columns,
            "batches": len(widths),
            "batch_widths": widths,
            "max_batch_width": max(widths, default=0),
            "mean_batch_width": (sum(widths) / len(widths)) if widths else 0.0,
        }

    def inject_fault(self, rank: int) -> None:
        """Chaos hook: make *rank*'s worker fail its next batch.

        Exists for the lifecycle tests (kill a worker mid-request and
        assert the service fails fast with provenance, not a timeout).
        """
        with self._lock:
            self._fault.add(rank)

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down.

        ``drain=True`` serves everything already submitted first;
        ``drain=False`` cancels queued requests with a descriptive
        :class:`ServiceClosedError` (an in-flight batch still completes).
        If the queue cannot be served within *timeout* seconds the
        world is aborted so blocked workers fail fast instead of
        hanging.  Idempotent.
        """
        with self._lock:
            if self._state == "running":
                self._state = "closing"
                self._note("state", "w", "close")
                if not drain:
                    self._cancel_pending_locked()
                # a hold no longer applies: what is queued is served now
                self._dispatch_locked()
            drained = self._drain_locked(timeout)
        if not drained:
            # a rank is stuck in a sweep: abort the world, which fails
            # its batch (and with it the service) with provenance
            self.world.abort(
                f"service {self.name!r}: close() timed out after {timeout} s "
                f"with a request in flight"
            )
            with self._lock:
                self._drain_locked(5.0)
        for w in self._workers:
            w.join(5.0)
        # a worker closes its engine on the way out, so a comm thread is
        # still there only beside a worker that is stuck itself
        threads = [*self._workers, *(e.comm_thread for e in self._engines if e is not None)]
        stuck = [t.name for t in threads if t is not None and t.is_alive()]
        if stuck:
            raise ServiceError(f"service {self.name!r}: threads failed to stop: {stuck}")

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=exc == (None, None, None))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note(self, buffer: str, mode: str, op: str) -> None:
        """Record one shared-state access with the attached sanitizer.

        Call sites hold ``self._lock``; the sanitizer then sees every
        access ordered by the lock hand-off edges the TrackedCondition
        publishes, so a clean service run reports zero races — and a
        bypassed lock (the seeded ``thread-race-unlocked-service``
        fixture) shows up as causally concurrent accesses.
        """
        if self._tsan is not None:
            self._tsan.on_access(self._tsan_domain, buffer, mode, op=op)

    def _closed_message_locked(self, verb: str) -> str:
        msg = f"cannot {verb}: service {self.name!r} is {self._state}"
        if self._fail_reason:
            msg += f" ({self._fail_reason})"
        return msg

    def _cancel_pending_locked(self) -> None:
        while self._pending:
            req, _response, _data = self._pending.popleft()
            req._complete(
                None,
                ServiceClosedError(
                    f"service {self.name!r} {self._state} before request "
                    f"{req.id} ({req.k} column(s)) was served"
                ),
            )

    def _drain_locked(self, timeout: float) -> bool:
        """Wait for a closing service to run dry, then mark it closed;
        False if it is still busy after *timeout* seconds."""
        deadline = time.monotonic() + timeout
        while self._state == "closing" and (self._pending or self._inflight is not None):
            if not self._lock.wait(max(0.0, deadline - time.monotonic())):
                return False
        if self._state == "closing":
            self._state = "closed"
            self._note("state", "w", "close")
            self._lock.notify_all()  # the workers: nothing more will come
        return True

    def _dispatch_locked(self) -> None:
        """Form the next batch if one can start now.

        Called wherever that may have become true: a request was queued,
        a batch landed, a hold was released, the service is closing (a
        hold does not outlive ``close``).
        """
        if self._inflight is not None or not self._pending:
            return
        if self._state != "closing" and (self._state != "running" or self._hold):
            return
        # take whole requests until the next would overflow max_batch
        # columns (always take at least one)
        entries: list[tuple[ServeRequest, np.ndarray]] = []
        blocks: list[np.ndarray] = []
        width = 0
        while self._pending:
            req, response, data = self._pending[0]
            if entries and width + req.k > self.max_batch:
                break
            self._pending.popleft()
            entries.append((req, response))
            blocks.append(data)
            width += req.k
        self._note("pending", "w", "dispatch")
        batch = _Batch(self._seq, entries, blocks, self.model.nranks, width)
        self._seq += 1
        self._inflight = batch
        for inbox in self._inboxes:
            inbox.append(batch)
        self._note("inboxes", "w", "dispatch")
        self._lock.notify_all()

    def _land_locked(self, batch: _Batch) -> None:
        """One rank is done with *batch*; the last one completes it and
        starts whatever queued up meanwhile."""
        batch.remaining -= 1
        if batch.remaining > 0 or batch.error is not None:
            return
        for req, response in batch.entries:
            req._complete(response, None)
        self._batch_widths.append(batch.width)
        self._requests_served += len(batch.entries)
        self._columns_served += batch.width
        self._note("counters", "w", "finish-batch")
        self._inflight = None
        self._dispatch_locked()
        if self._state == "closing":
            self._lock.notify_all()  # close() is waiting for the queue to drain

    def _worker(self, rank: int) -> None:
        comm = self.world.comms[rank]
        try:
            engine = self.model.engine(comm, sanitizer=self._tsan)
        except Exception as exc:  # fail loudly, never die silently
            self._worker_failed(None, rank, exc)
            return
        self._engines[rank] = engine
        with engine:  # however the loop ends, the engine's comm thread goes too
            self._serve(rank, engine)

    def _serve(self, rank: int, engine) -> None:
        """One rank's loop: take a batch, sweep it, land it — until the
        service is closed or has failed."""
        scheme = self.model.scheme
        inbox = self._inboxes[rank]
        lo, hi = self.model.plan.partition.bounds(rank)
        gathered, swept = _Scratch(hi - lo), _Scratch(hi - lo)
        while True:
            with self._lock:
                while not inbox and self._state not in ("closed", "failed"):
                    self._lock.wait()
                if not inbox:
                    return
                batch = inbox.popleft()
                self._note("inboxes", "w", f"worker{rank}-take")
                fault = rank in self._fault
            try:
                if fault:
                    raise RuntimeError(f"injected worker fault on rank {rank}")
                # this rank's rows of every request: gathered, swept and
                # written back here, by all ranks at once and into memory
                # that is already there
                blocks = batch.blocks
                if len(blocks) == 1:
                    X_local = blocks[0][lo:hi]
                else:
                    X_local = np.concatenate(
                        [data[lo:hi] for data in blocks], axis=1, out=gathered(batch.width)
                    )
                Y_local = engine.multiply_block(X_local, scheme, out=swept(batch.width))
                col = 0
                for data in blocks:
                    data[lo:hi] = Y_local[:, col : col + data.shape[1]]
                    col += data.shape[1]
            except Exception as exc:  # fail the batch, never swallow
                self._worker_failed(batch, rank, exc)
                continue
            with self._lock:
                self._note("batch-parts", "w", f"worker{rank}-land")
                self._land_locked(batch)

    def _worker_failed(self, batch: _Batch | None, rank: int, exc: Exception) -> None:
        with self._lock:
            first = self._state != "failed"
            self._state = "failed"
            self._note("state", "w", f"worker{rank}-failed")
            if first:
                self._fail_reason = f"rank {rank}: {exc!r}"
            # a rank that dies before it took the batch in flight will
            # never land it either
            doomed = batch if batch is not None else self._inflight
            if doomed is not None and doomed.error is None:
                doomed.error = ServiceError(
                    f"service {self.name!r}: rank {rank} failed serving batch "
                    f"{doomed.seq} ({doomed.width} column(s), scheme "
                    f"{self.model.scheme!r}): {exc!r}"
                )
                doomed.error.__cause__ = exc
                for req, _response in doomed.entries:
                    req._complete(None, doomed.error)
            self._cancel_pending_locked()
            self._lock.notify_all()
        if first:
            # wake every peer blocked in the halo exchange *now* — with
            # rank/peer/tag provenance — instead of letting them ripen
            # into a 60 s collective timeout
            self.world.abort(f"service {self.name!r}: rank {rank} failed mid-request: {exc!r}")
