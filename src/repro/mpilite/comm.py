"""The mpilite communicator: an MPI-like API over in-process threads.

This is the *functional* twin of :mod:`repro.smpi`: where the simulated
MPI predicts timing, mpilite actually moves data, so the distributed
spMVM (and the solvers on top of it) can be executed and verified
numerically.  The API is the MPI the program speaks, in mpi4py's
lowercase spelling: ``send``/``recv``, ``isend``/``irecv`` completed by
``waitall``, ``barrier`` and ``allreduce``.  Any Python object travels;
the router copies numpy payloads, so a sender may reuse its buffer the
moment ``send`` returns.

Rank and communication threads share one interpreter: everything here
runs under the GIL, and only the compiled kernels (which release it)
truly run beside it.  Timing is therefore the simulator's business
(DESIGN.md), but the communication *semantics* are real: blocking
receives, nonblocking requests, wildcard matching, deadlocks and all.
Collectives match by generation, the n-th collective call of every
rank; a generation whose ranks called different collectives fails on
every one of them, with one error naming each rank's call (MPI leaves
that erroneous program undefined).  Those semantics are
what the dynamic analyzer in :mod:`repro.check` verifies: a
:class:`~repro.check.Checker` given to the
:class:`~repro.mpilite.world.World` observes every operation through
the hooks in this module (request lifecycle, collective generations)
without changing behaviour.

Blocking receives take their default timeout from the communicator
(``default_timeout``, routed through the world), so a test world can
shrink the safety net without threading ``timeout=`` through every call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpilite.router import ANY_SOURCE, ANY_TAG, Router, WorldAbortedError, wait_until

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
            self._value = self._wait_fn()
            self._done = True
            if self._on_done is not None:
                self._on_done()
        return self._value


class _Mismatch(str):
    """A generation's result when its ranks called different collectives:
    the message every rank of it raises."""


class CollectiveState:
    """Shared rendezvous state for collectives of one world.

    Generation counting makes every collective reusable.  Each rank's
    deposit names its collective (``barrier``, ``allreduce``); when the
    ranks of one generation named different ones, the combine does not
    run and every rank of that generation raises one ``RuntimeError``
    naming each rank's call, whichever arrived last.  A matched
    generation pays one comparison per rank for this.

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
        # the current generation's collective (its first rank's) and the
        # ranks that called another one, with what they called
        self._kind = ""
        self._odd: dict[int, str] = {}
        self._abort_reason: str | None = None

    def abort(self, reason: str) -> None:
        """Wake every rank blocked in a collective with an error.

        The point-to-point twin lives on :meth:`Router.abort`; both are
        driven together by a world/worker-pool teardown so a shutdown
        mid-collective raises :class:`WorldAbortedError` immediately
        instead of racing the collective timeout.  A generation that
        completed before the abort still hands out its result.
        """
        with self._lock:
            self._abort_reason = str(reason)
            self._lock.notify_all()

    def _check_abort(self, rank: int, gen: int) -> None:
        if self._abort_reason is not None and gen not in self._results:
            raise WorldAbortedError(
                f"rank {rank}: collective generation {gen} aborted: "
                f"{self._abort_reason}"
            )

    def _mismatch(self, gen: int, ranks) -> _Mismatch:
        calls = ", ".join(f"rank {r} called {self._odd.get(r, self._kind)}" for r in sorted(ranks))
        return _Mismatch(f"collective generation {gen} mismatched: {calls}")

    def exchange(
        self,
        rank: int,
        value: Any,
        combine: Callable[[dict[int, Any]], Any],
        kind: str = "exchange",
    ) -> Any:
        """Deposit *value* for the collective named *kind*; the last
        arriving rank runs *combine* over all deposits; everyone gets the
        combined result.  Ranks that named different collectives all
        raise ``RuntimeError`` instead."""
        with self._lock:
            gen = self._generation
            self._check_abort(rank, gen)
            self._slots.setdefault(gen, {})[rank] = value
            if self._arrived == 0:
                self._kind = kind
            elif kind != self._kind:
                self._odd[rank] = kind
            self._arrived += 1
            obs = self.observer
            if obs is not None:
                obs.on_collective_enter(rank, gen)
            if self._arrived == self.nranks:
                slots = self._slots.pop(gen)
                if self._odd:
                    self._results[gen] = self._mismatch(gen, slots)
                    self._odd = {}
                else:
                    self._results[gen] = combine(slots)
                self._arrived = 0
                self._generation += 1
                self._lock.notify_all()
            elif not wait_until(
                self._lock, lambda: gen in self._results,
                time.monotonic() + self.timeout, obs, rank,
                lambda: self._check_abort(rank, gen),
            ):
                if obs is not None:
                    obs.on_collective_exit(rank, gen, completed=False)
                raise TimeoutError(
                    f"rank {rank}: collective generation {gen} never "
                    f"completed within {self.timeout} s"
                )
            result = self._results[gen]
            if obs is not None:
                obs.on_collective_exit(rank, gen, completed=True)
            # last reader of a generation cleans it up
            self._slots.setdefault(-gen - 1, {})[rank] = True
            if len(self._slots[-gen - 1]) == self.nranks:
                del self._slots[-gen - 1]
                del self._results[gen]
            if result.__class__ is _Mismatch:
                raise RuntimeError(f"rank {rank}: {result}")
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
    def observer(self) -> Any:
        """The world's :class:`repro.check.Checker`, or ``None``."""
        return self._router.observer

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
        return Request(
            lambda: None, _done=True, kind="isend", rank=self._rank, peer=dest, tag=tag
        )

    def irecv(self, source: int, tag: int = 0, timeout: float | None = None) -> Request:
        """Nonblocking receive; :meth:`Request.wait` blocks for the data.

        Under the dynamic analyzer the request is registered, so one
        never completed is reported as leaked.
        """
        req = Request(
            lambda: self._router.get(
                self._rank, source, tag, timeout=self._timeout(timeout)
            ),
            kind="irecv", rank=self._rank, peer=source, tag=tag,
        )
        obs = self._router.observer
        if obs is not None:
            obs.on_request_open(req)
        return req

    def waitall(self, requests: Sequence[Request]) -> list[Any]:
        """Complete a set of requests, returning their values in order."""
        return [r.wait() for r in requests]

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._coll.exchange(self._rank, None, lambda slots: None, "barrier")

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

        return self._coll.exchange(self._rank, value, combine, "allreduce")
