"""The mpilite communicator: an MPI-like API over in-process threads.

This is the *functional* twin of :mod:`repro.smpi`: where the simulated
MPI predicts timing, mpilite actually moves data, so the distributed
spMVM (and the solvers on top of it) can be executed and verified
numerically.  The API mirrors the mpi4py conventions the paper's
ecosystem uses: lowercase methods move Python objects, capitalised
``Send``/``Recv``/``Isend``/``Irecv`` move numpy buffers.

Rank and communication threads share one interpreter: everything here
runs under the GIL, and only the compiled kernels (which release it)
truly run beside it.  Timing is therefore the simulator's business
(DESIGN.md), but the communication *semantics* are real: blocking
receives, nonblocking requests, wildcard matching, deadlocks and all.
Those semantics are
what the dynamic analyzer in :mod:`repro.check` verifies: a
:class:`~repro.check.Checker` given to the
:class:`~repro.mpilite.world.World` observes every operation through
the hooks in this module (request lifecycle, buffer checksums,
collective generations) without changing behaviour.

Blocking receives take their default timeout from the communicator
(``default_timeout``, routed through the world), so a test world can
shrink the safety net without threading ``timeout=`` through every call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpilite.router import (
    ANY_SOURCE,
    ANY_TAG,
    OBSERVER_WAIT_SLICE_MIN,
    Router,
    WorldAbortedError,
    observer_wait_slice,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Comm",
    "CollectiveState",
    "WorldAbortedError",
]

_DEFAULT_TIMEOUT = 60.0


@dataclass
class Request:
    """Handle for a nonblocking mpilite operation.

    Carries its provenance (``kind``/``rank``/``peer``/``tag``) so leak
    reports and diagnostics can name the operation; ``_on_done`` is the
    analyzer's completion hook.
    """

    _wait_fn: Callable[[], Any]
    _poll_fn: Callable[[], bool] | None = None
    _done: bool = False
    _value: Any = None
    kind: str = ""
    rank: int = -1
    peer: int = -1
    tag: int = 0
    _on_done: Callable[[], None] | None = None

    def wait(self) -> Any:
        """Complete the operation, returning received data (None for sends).

        Idempotent: a second ``wait()`` returns the same value without
        re-executing the operation.
        """
        if not self._done:
            self._complete(self._wait_fn())
        return self._value

    def test(self) -> bool:
        """Nonblocking completion probe (True once :meth:`wait` would not block).

        When the operation carries a mailbox probe (irecv), a positive
        probe completes the request immediately, so ``test()``-driven
        polling loops make progress — MPI_Test semantics.  Calling
        ``test()`` after ``wait()`` keeps returning True.
        """
        if self._done:
            return True
        if self._poll_fn is not None and self._poll_fn():
            self._complete(self._wait_fn())
            return True
        return False

    def _complete(self, value: Any) -> None:
        self._value = value
        self._done = True
        if self._on_done is not None:
            self._on_done()


class CollectiveState:
    """Shared rendezvous state for collectives of one world.

    Generation counting makes every collective reusable and detects
    mismatched participation (a rank calling ``barrier`` while another
    calls ``allreduce`` trips the assertion on the slot type).

    ``timeout`` bounds how long a rank waits for the others (routed
    through the world so tests can shrink it); when an ``observer`` (the
    world's :class:`repro.check.Checker`) is attached, the wait runs in short
    slices so a wait-for cycle is diagnosed immediately instead of
    after the timeout expires.
    """

    def __init__(self, nranks: int, timeout: float | None = None) -> None:
        self.nranks = nranks
        self.timeout = _DEFAULT_TIMEOUT if timeout is None else timeout
        self.observer: Any = None
        self._lock = threading.Condition()
        self._slots: dict[int, dict[int, Any]] = {}
        self._results: dict[int, Any] = {}
        self._generation = 0
        self._arrived = 0
        self._abort_reason: str | None = None

    def abort(self, reason: str) -> None:
        """Wake every rank blocked in a collective with an error.

        The point-to-point twin lives on :meth:`Router.abort`; both are
        driven together by a world/worker-pool teardown so a shutdown
        mid-collective raises :class:`WorldAbortedError` immediately
        instead of racing the collective timeout.
        """
        with self._lock:
            self._abort_reason = str(reason)
            self._lock.notify_all()

    def _check_abort(self, rank: int, gen: int) -> None:
        if self._abort_reason is not None:
            raise WorldAbortedError(
                f"rank {rank}: collective generation {gen} aborted: "
                f"{self._abort_reason}"
            )

    def exchange(self, rank: int, value: Any, combine: Callable[[dict[int, Any]], Any]) -> Any:
        """Deposit *value*; the last arriving rank runs *combine* over all
        deposits; everyone gets the combined result."""
        import time

        with self._lock:
            gen = self._generation
            self._check_abort(rank, gen)
            self._slots.setdefault(gen, {})[rank] = value
            self._arrived += 1
            obs = self.observer
            if obs is not None:
                obs.on_collective_enter(rank, gen)
            if self._arrived == self.nranks:
                self._results[gen] = combine(self._slots.pop(gen))
                self._arrived = 0
                self._generation += 1
                self._lock.notify_all()
            else:
                deadline = time.monotonic() + self.timeout
                backoff = OBSERVER_WAIT_SLICE_MIN
                while gen not in self._results:
                    remaining = deadline - time.monotonic()
                    # A notification can land exactly at the deadline: the
                    # last rank deposits the result while we are timing
                    # out, so the predicate is re-checked before failing.
                    if remaining <= 0:
                        if obs is not None:
                            obs.on_collective_exit(rank, gen, completed=False)
                            obs = None
                        raise TimeoutError(
                            f"rank {rank}: collective generation {gen} never "
                            f"completed within {self.timeout} s"
                        )
                    if obs is None:
                        wait_slice = remaining
                    else:
                        # bounded backoff: diagnosable, but near-zero idle CPU
                        wait_slice, backoff = observer_wait_slice(backoff, remaining)
                    self._lock.wait(timeout=wait_slice)
                    self._check_abort(rank, gen)
                    if obs is not None:
                        obs.check_blocked(rank)
            result = self._results[gen]
            if obs is not None:
                obs.on_collective_exit(rank, gen, completed=True)
            # last reader of a generation cleans it up
            self._slots.setdefault(-gen - 1, {})[rank] = True
            if len(self._slots[-gen - 1]) == self.nranks:
                del self._slots[-gen - 1]
                del self._results[gen]
            return result


class Comm:
    """Communicator bound to one rank of an mpilite world.

    ``default_timeout`` is the blocking-receive safety net applied when a
    call site passes no explicit ``timeout=``; worlds created by
    :func:`~repro.mpilite.world.run_spmd` route their ``recv_timeout``
    argument here.  :attr:`observer` is the world's opt-in dynamic
    analyzer, read from the router; when absent, no per-operation
    bookkeeping happens.
    """

    def __init__(
        self,
        rank: int,
        router: Router,
        collectives: CollectiveState,
        default_timeout: float | None = None,
    ) -> None:
        self._rank = rank
        self._router = router
        self._coll = collectives
        self._default_timeout = _DEFAULT_TIMEOUT if default_timeout is None else default_timeout

    @property
    def rank(self) -> int:
        """This rank's id."""
        return self._rank

    @property
    def size(self) -> int:
        """World size."""
        return self._router.nranks

    @property
    def observer(self) -> Any:
        """The world's :class:`repro.check.Checker`, or ``None``."""
        return self._router.observer

    @property
    def default_timeout(self) -> float:
        """Blocking-receive timeout applied when none is given."""
        return self._default_timeout

    def _timeout(self, timeout: float | None) -> float:
        return self._default_timeout if timeout is None else timeout

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send of any Python object (numpy arrays are copied)."""
        self._router.put(self._rank, dest, tag, obj)

    def recv(self, source: int, tag: int = 0, timeout: float | None = None) -> Any:
        """Blocking receive of the next message from *source* with *tag*.

        *source*/*tag* may be :data:`ANY_SOURCE`/:data:`ANY_TAG`.  Raises
        :class:`TimeoutError` naming the blocked rank, peer and tag after
        *timeout* seconds (default: the communicator's
        ``default_timeout``).
        """
        return self._router.get(self._rank, source, tag, timeout=self._timeout(timeout))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (buffered: completes immediately)."""
        self._router.put(self._rank, dest, tag, obj)
        req = Request(lambda: None, kind="isend", rank=self._rank, peer=dest, tag=tag)
        req._done = True
        return req

    def irecv(self, source: int, tag: int = 0, timeout: float | None = None) -> Request:
        """Nonblocking receive; :meth:`Request.wait` blocks for the data,
        :meth:`Request.test` probes the mailbox without blocking."""
        req = Request(
            lambda: self._router.get(
                self._rank, source, tag, timeout=self._timeout(timeout)
            ),
            _poll_fn=lambda: self._router.poll(self._rank, source, tag),
            kind="irecv", rank=self._rank, peer=source, tag=tag,
        )
        self._track(req)
        return req

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-mode send of a numpy array."""
        if not isinstance(buf, np.ndarray):
            raise TypeError("Send expects a numpy array; use send() for objects")
        self._router.put(self._rank, dest, tag, buf)

    def Recv(
        self, buf: np.ndarray, source: int, tag: int = 0, timeout: float | None = None
    ) -> None:
        """Buffer-mode receive into a preallocated numpy array."""
        data = self._router.get(self._rank, source, tag, timeout=self._timeout(timeout))
        if not isinstance(data, np.ndarray):
            raise TypeError(f"expected array message, got {type(data).__name__}")
        if data.shape != buf.shape:
            raise ValueError(f"receive buffer shape {buf.shape} != message shape {data.shape}")
        buf[...] = data

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer-mode send.

        mpilite sends are buffered (the router copies on ``put``), so the
        payload is captured at posting time and the operation cannot
        block — but MPI semantics still require the request to be
        completed with ``wait()``/``test()``, and the user buffer must
        not be modified before then.  Under the dynamic analyzer the
        buffer is checksummed at post and at completion: a mismatch is
        reported as a buffer hazard (it would be a data race under a
        real, non-buffering MPI), and a request never completed is
        reported as leaked.
        """
        if not isinstance(buf, np.ndarray):
            raise TypeError("Isend expects a numpy array; use isend() for objects")
        self._router.put(self._rank, dest, tag, buf)
        # buffered: the payload already left, so a completion probe always
        # succeeds — but completion still only happens via wait()/test()
        req = Request(
            lambda: None, _poll_fn=lambda: True,
            kind="Isend", rank=self._rank, peer=dest, tag=tag,
        )
        self._track(req, buf=buf)
        return req

    def Irecv(
        self, buf: np.ndarray, source: int, tag: int = 0, timeout: float | None = None
    ) -> Request:
        """Nonblocking buffer-mode receive into a preallocated array.

        ``wait()`` blocks for the payload, verifies the shape, fills
        *buf* and returns it.  Under the dynamic analyzer, user writes to
        *buf* between posting and completion are reported as buffer
        hazards (the library owns the buffer for the duration of the
        request).
        """
        if not isinstance(buf, np.ndarray):
            raise TypeError("Irecv expects a numpy array; use irecv() for objects")
        obs, rank = self._router.observer, self._rank

        def wait_fn() -> np.ndarray:
            data = self._router.get(rank, source, tag, timeout=self._timeout(timeout))
            if not isinstance(data, np.ndarray):
                raise TypeError(f"expected array message, got {type(data).__name__}")
            if data.shape != buf.shape:
                raise ValueError(
                    f"receive buffer shape {buf.shape} != message shape {data.shape}"
                )
            if obs is not None:
                # the in-flight checksum is verified *before* the library
                # writes the payload, so a user write is distinguishable
                # from the delivery itself
                obs.verify_buffer(req, buf)
            buf[...] = data
            return buf

        req = Request(
            wait_fn,
            _poll_fn=lambda: self._router.poll(rank, source, tag),
            kind="Irecv", rank=rank, peer=source, tag=tag,
        )
        self._track(req, buf=buf)
        return req

    def _track(self, req: Request, buf: np.ndarray | None = None) -> None:
        """Register *req* with the analyzer (leaks, buffer checksums)."""
        obs = self._router.observer
        if obs is not None:
            obs.on_request_open(req, buf=buf)

    def waitall(self, requests: Sequence[Request]) -> list[Any]:
        """Complete a set of requests, returning their values in order."""
        return [r.wait() for r in requests]

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._coll.exchange(self._rank, None, lambda slots: None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast *obj* from *root* to everyone (returned on all ranks)."""
        return self._coll.exchange(
            self._rank, obj if self._rank == root else None, lambda slots: slots[root]
        )

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce over all ranks (default: sum) with the result everywhere.

        numpy arrays reduce elementwise; scalars reduce to a scalar.
        Every rank is handed the same combined object, so a combined
        array is a fresh read-only one: a rank that wants to update it
        in place must copy it, and no rank's deposit is handed out.
        """
        import functools

        op = op or (lambda a, b: a + b)

        def combine(slots: dict[int, Any]) -> Any:
            ordered = [slots[r] for r in sorted(slots)]
            total = functools.reduce(op, ordered)
            if isinstance(total, np.ndarray):
                total = total.copy()  # with one rank, or an op that returns an argument, a deposit
                total.flags.writeable = False
            return total

        return self._coll.exchange(self._rank, value, combine)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank, delivered to everyone in rank order."""
        return self._coll.exchange(
            self._rank, value, lambda slots: [slots[r] for r in sorted(slots)]
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather to *root* (others get None)."""
        out = self.allgather(value)
        return out if self._rank == root else None
