"""Message router shared by all ranks of an mpilite world.

A single in-process mailbox system: each (destination, source, tag)
triple owns a FIFO of messages; receivers block on a condition variable.
Sends are *buffered* (they complete immediately after depositing a copy),
matching MPI's standard-mode semantics for small/medium messages.

numpy payloads are copied on send so that the sender may reuse its
buffer immediately — the same guarantee ``MPI_Send`` gives once it
returns.

A receive names its sender and tag (the program posts one ``irecv`` per
halo channel of a plan; there are no wildcards), so matching is one box
lookup: each channel is FIFO, and which message a receive gets never
depends on thread timing.

An optional :attr:`Router.observer` (the world's
:class:`repro.check.Checker`, set by :class:`repro.mpilite.world.World`)
is notified of every deposit, blocked receive, and completed match.
Every blocking operation of a world — a receive here, a collective in
:class:`~repro.mpilite.comm.CollectiveState` — waits through
:func:`wait_until`, the one wait policy: with an observer attached it
waits in short slices so the observer can convert a wait-for cycle into
an immediate ``DeadlockError`` instead of a timeout; with none it is one
condition wait to the deadline, and the hot path is unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

import numpy as np

__all__ = ["Router", "WorldAbortedError", "check_peer", "observer_wait_slice", "wait_until"]

#: First observer-mode wait slice (seconds): how quickly a declared
#: deadlock reaches a rank that has just blocked.
OBSERVER_WAIT_SLICE_MIN = 0.02
#: Cap on the observer-mode wait slice (seconds) once the bounded
#: backoff has grown it; bounds both idle CPU *and* detection latency.
OBSERVER_WAIT_SLICE_MAX = 0.25


class WorldAbortedError(RuntimeError):
    """The mpilite world was torn down while an operation was blocked.

    Raised (with rank/peer/tag provenance) by every wait that was in
    flight when :meth:`Router.abort` ran — a worker-pool shutdown or a
    failed peer must surface here immediately instead of each survivor
    burning its full receive/collective timeout.
    """


def observer_wait_slice(backoff: float, remaining: float | None) -> tuple[float, float]:
    """Next condition-wait slice under an attached observer, with backoff.

    Observer-mode waits run in slices so the analyzer can convert a
    wait-for cycle into an immediate diagnosis — but a worker pool
    sitting idle between requests must not spin at the first slice
    forever.  The slice starts at :data:`OBSERVER_WAIT_SLICE_MIN` and
    doubles up to :data:`OBSERVER_WAIT_SLICE_MAX` while the wait stays blocked,
    bounding idle wakeups while keeping detection latency bounded too.
    Returns ``(slice, next_backoff)``; *remaining* (time to the
    deadline) caps the slice when finite.
    """
    wait_slice = backoff if remaining is None else min(backoff, remaining)
    return wait_slice, min(backoff * 2.0, OBSERVER_WAIT_SLICE_MAX)


def wait_until(
    cond: threading.Condition,
    ready: Callable[[], Any],
    deadline: float | None,
    obs: Any,
    rank: int,
    check_abort: Callable[[], None],
) -> Any:
    """Wait on *cond* (held by the caller) until ``ready()`` is truthy.

    The one wait loop of mpilite's blocking operations, a receive and a
    collective alike.  Returns the first truthy ``ready()`` value, or
    ``None`` once ``time.monotonic()`` passes *deadline* (``None``: no
    deadline); the caller raises its own timeout, naming what it waited
    for.  After every wakeup ``check_abort()`` raises if the world was
    torn down, and an attached observer *obs* is probed for *rank*
    (``check_blocked``), with the slices of :func:`observer_wait_slice`
    bounding how long a declared deadlock takes to reach the rank.
    ``ready()`` is re-checked after the last slice too: a result landing
    exactly at the deadline is not a timeout.
    """
    backoff = OBSERVER_WAIT_SLICE_MIN
    while True:
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            return None
        wait_slice = remaining
        if obs is not None:
            wait_slice, backoff = observer_wait_slice(backoff, remaining)
        cond.wait(timeout=wait_slice)
        check_abort()
        if obs is not None:
            obs.check_blocked(rank)
        found = ready()
        if found:
            return found


def check_peer(peer: int, tag: int, nranks: int, name: str) -> None:
    """Raise ``ValueError`` unless *peer* is a rank of an *nranks*-rank
    world and *tag* is an MPI tag (``>= 0``); *name* is the argument's."""
    if not 0 <= peer < nranks:
        raise ValueError(f"{name}={peer} out of range [0, {nranks})")
    if tag < 0:
        raise ValueError(f"tag={tag} out of range: MPI tags are >= 0")


def _copy_payload(payload: Any) -> Any:
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class Router:
    """Thread-safe mailbox router for one mpilite world."""

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self._lock = threading.Condition()
        self._boxes: dict[tuple[int, int, int], deque[Any]] = {}
        self._abort_reason: str | None = None
        #: the world's :class:`repro.check.Checker`, or ``None`` (the
        #: fast path); set once, by the World that owns this router
        self.observer: Any = None

    # ------------------------------------------------------------------
    def abort(self, reason: str) -> None:
        """Tear the world down: wake every blocked wait with an error.

        After ``abort`` every blocked or future :meth:`get`/:meth:`put`
        raises :class:`WorldAbortedError` carrying *reason* plus the
        operation's rank/peer/tag — the teardown path a persistent
        worker pool takes so a shutdown (or a dead peer) mid-request
        fails loudly in milliseconds instead of hanging each survivor
        for its full timeout.
        """
        with self._lock:
            self._abort_reason = str(reason)
            self._lock.notify_all()

    def _check_abort(self, dst: int, src: int, tag: int, op: str) -> None:
        if self._abort_reason is not None:
            raise WorldAbortedError(
                f"rank {dst}: {op} (peer {src}, tag {tag}) aborted: {self._abort_reason}"
            )

    def put(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Deposit a message (copies numpy payloads)."""
        self._check_rank(src, "src")
        check_peer(dst, tag, self.nranks, "dest")
        item = _copy_payload(payload)
        with self._lock:
            self._check_abort(src, dst, tag, "send")
            self._boxes.setdefault((dst, src, tag), deque()).append(item)
            if self.observer is not None:
                nbytes = item.nbytes if isinstance(item, np.ndarray) else 0
                self.observer.on_send(src, dst, tag, nbytes)
            self._lock.notify_all()

    def get(self, dst: int, src: int, tag: int, timeout: float | None = None) -> Any:
        """Blocking receive of the next message from *src* with *tag*.

        Raises :class:`TimeoutError` if *timeout* (seconds) elapses — the
        safety net that turns an mpilite deadlock into a test failure
        instead of a hang — naming the blocked rank, the awaited peer,
        and the tag.
        """
        self._check_rank(dst, "dst")
        check_peer(src, tag, self.nranks, "source")
        deadline = None if timeout is None else time.monotonic() + timeout
        key = (dst, src, tag)
        with self._lock:
            self._check_abort(dst, src, tag, "blocked receive")
            box = self._boxes.get(key)
            if not box:
                obs = self.observer
                try:
                    if obs is not None:
                        obs.on_recv_blocked(dst, src, tag)
                    box = wait_until(
                        self._lock, lambda: self._boxes.get(key), deadline, obs, dst,
                        lambda: self._check_abort(dst, src, tag, "blocked receive"),
                    )
                    if box is None:
                        raise TimeoutError(
                            f"rank {dst}: blocked receive from {src} "
                            f"with tag {tag} timed out after {timeout} s"
                        )
                finally:
                    if obs is not None:
                        obs.on_recv_unblocked(dst)
            item = box.popleft()
            if self.observer is not None:
                self.observer.on_recv_complete(dst, src, tag)
            return item

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int, name: str) -> None:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"{name}={rank} out of range [0, {self.nranks})")
