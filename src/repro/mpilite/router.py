"""Message router shared by all ranks of an mpilite world.

A single in-process mailbox system: each (destination, source, tag)
triple owns a FIFO of messages; receivers block on a condition variable.
Sends are *buffered* (they complete immediately after depositing a copy),
matching MPI's standard-mode semantics for small/medium messages.

numpy payloads are copied on send so that the sender may reuse its
buffer immediately — the same guarantee ``MPI_Send`` gives once it
returns.

Receives may use the :data:`ANY_SOURCE` / :data:`ANY_TAG` wildcards, in
which case the oldest matching message (by global arrival order) wins —
the nondeterministic matching that makes wildcard receives the classic
source of MPI message races, and exactly what the dynamic analyzer in
:mod:`repro.check` watches for.

An optional :attr:`Router.observer` (the analyzer's recorder) is
notified of every deposit, blocked receive, and completed match; when it
is attached, blocking receives wait in short slices so the observer can
convert a wait-for cycle into an immediate :class:`DeadlockError`
instead of a timeout.  With no observer the hot path is unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

import numpy as np

__all__ = ["ANY_SOURCE", "ANY_TAG", "Router", "WorldAbortedError", "observer_wait_slice"]

#: Wildcard source rank for receives (matches any sender).
ANY_SOURCE = -1
#: Wildcard tag for receives (matches any tag).
ANY_TAG = -1

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


def observer_wait_slice(obs, backoff: float, remaining: float | None) -> tuple[float, float]:
    """Next condition-wait slice under an attached observer, with backoff.

    Observer-mode waits run in slices so the analyzer can convert a
    wait-for cycle into an immediate diagnosis — but a worker pool
    sitting idle between requests must not spin at the poll interval
    forever.  The slice starts at ``obs.poll_interval`` and doubles up
    to :data:`OBSERVER_WAIT_SLICE_MAX` while the wait stays blocked,
    bounding idle wakeups while keeping detection latency bounded too.
    Returns ``(slice, next_backoff)``; *remaining* (time to the
    deadline) caps the slice when finite.
    """
    wait_slice = backoff if remaining is None else min(backoff, remaining)
    return wait_slice, min(backoff * 2.0, OBSERVER_WAIT_SLICE_MAX)


def _copy_payload(payload: Any) -> Any:
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


def _describe_src(src: int) -> str:
    return "ANY_SOURCE" if src == ANY_SOURCE else str(src)


def _describe_tag(tag: int) -> str:
    return "ANY_TAG" if tag == ANY_TAG else str(tag)


class Router:
    """Thread-safe mailbox router for one mpilite world."""

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self._lock = threading.Condition()
        # each box holds (arrival seq, payload) so wildcard receives can
        # pick the globally oldest matching message
        self._boxes: dict[tuple[int, int, int], deque[tuple[int, Any]]] = {}
        self._bytes_routed = 0
        self._messages = 0
        self._abort_reason: str | None = None
        #: optional :class:`repro.check.CommRecorder` (or any object with
        #: the same observer interface); ``None`` keeps the fast path
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
                f"rank {dst}: {op} (peer {_describe_src(src)}, tag "
                f"{_describe_tag(tag)}) aborted: {self._abort_reason}"
            )

    def put(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Deposit a message (copies numpy payloads)."""
        self._check_rank(src, "src")
        self._check_rank(dst, "dst")
        item = _copy_payload(payload)
        with self._lock:
            self._check_abort(src, dst, tag, "send")
            self._boxes.setdefault((dst, src, tag), deque()).append((self._messages, item))
            self._messages += 1
            nbytes = item.nbytes if isinstance(item, np.ndarray) else 0
            self._bytes_routed += nbytes
            if self.observer is not None:
                self.observer.on_send(src, dst, tag, nbytes)
            self._lock.notify_all()

    def get(self, dst: int, src: int, tag: int, timeout: float | None = None) -> Any:
        """Blocking receive of the next matching message.

        *src* may be :data:`ANY_SOURCE` and *tag* may be :data:`ANY_TAG`;
        the oldest matching message wins.  Raises :class:`TimeoutError`
        if *timeout* (seconds) elapses — the safety net that turns an
        mpilite deadlock into a test failure instead of a hang — naming
        the blocked rank, the awaited peer, and the tag.
        """
        self._check_rank(dst, "dst")
        if src != ANY_SOURCE:
            self._check_rank(src, "src")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._check_abort(dst, src, tag, "blocked receive")
            key = self._match(dst, src, tag)
            if key is not None:
                return self._take(key, dst, src, tag)
            obs = self.observer
            backoff = obs.poll_interval if obs is not None else 0.0
            try:
                if obs is not None:
                    obs.on_recv_blocked(dst, src, tag)
                while True:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"rank {dst}: blocked receive from {_describe_src(src)} "
                            f"with tag {_describe_tag(tag)} timed out after {timeout} s"
                        )
                    wait_slice = remaining
                    if obs is not None:
                        # slices let the observer diagnose deadlocks, but
                        # back off exponentially (bounded) so an idle pool
                        # does not spin at the poll interval forever
                        wait_slice, backoff = observer_wait_slice(obs, backoff, remaining)
                    self._lock.wait(timeout=wait_slice)
                    self._check_abort(dst, src, tag, "blocked receive")
                    if obs is not None:
                        obs.check_blocked(dst)
                    key = self._match(dst, src, tag)
                    if key is not None:
                        return self._take(key, dst, src, tag)
            finally:
                if obs is not None:
                    obs.on_recv_unblocked(dst)

    def poll(self, dst: int, src: int, tag: int) -> bool:
        """True when a matching message is waiting (wildcards allowed)."""
        with self._lock:
            return self._match(dst, src, tag) is not None

    # ------------------------------------------------------------------
    def _match(self, dst: int, src: int, tag: int) -> tuple[int, int, int] | None:
        """Nonempty box key matching (dst, src, tag), honouring wildcards.

        The caller holds the lock.  With wildcards the box whose head
        message arrived first wins, so wildcard receives drain messages
        in global arrival order.
        """
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (dst, src, tag)
            return key if self._boxes.get(key) else None
        best: tuple[int, int, int] | None = None
        best_seq = -1
        for key, box in self._boxes.items():
            if not box or key[0] != dst:
                continue
            if src != ANY_SOURCE and key[1] != src:
                continue
            if tag != ANY_TAG and key[2] != tag:
                continue
            if best is None or box[0][0] < best_seq:
                best, best_seq = key, box[0][0]
        return best

    def _take(self, key: tuple[int, int, int], dst: int, req_src: int, req_tag: int) -> Any:
        _seq, item = self._boxes[key].popleft()
        if self.observer is not None:
            self.observer.on_recv_complete(dst, key[1], key[2], req_src, req_tag)
        return item

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """Router counters (messages, numpy bytes routed)."""
        with self._lock:
            return {"messages": self._messages, "bytes": self._bytes_routed}

    def _check_rank(self, rank: int, name: str) -> None:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"{name}={rank} out of range for world size {self.nranks}")
