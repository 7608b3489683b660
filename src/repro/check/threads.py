"""Thread-level race sanitizer: per-thread vector clocks within a rank.

PR 4's vector clocks order *ranks* by the messages they exchange; this
module orders the *threads inside one rank* — the main compute thread,
the dedicated ``COMM_THREAD`` of task mode (Fig. 4c of the paper), and
the submitter/worker threads of :mod:`repro.serve` — and reports any
pair of conflicting buffer accesses that no happens-before edge
separates.  The discipline being machine-checked is the paper's
``MPI_THREAD_FUNNELED`` contract: all communication funneled through
one thread, all sharing published through barriers, joins or locks.

Happens-before edges come from four sources:

* **spawn** — the child thread starts with a copy of the spawner's
  clock (:meth:`ThreadSanitizer.on_spawn` /
  :meth:`~ThreadSanitizer.on_thread_start`): everything before the
  spawn is visible to the comm thread.  A ``COMM_THREAD`` region's
  hand-off to the engine's parked communication thread is this edge:
  one spawn token per region, the same OS thread re-bound each time;
* **join** — the joining thread merges the child's final clock
  (:meth:`~ThreadSanitizer.on_join`; the interpreter calls it from the
  ``OMP_BARRIER`` that closes a ``COMM_THREAD`` region, once it has
  taken the region's completion token);
* **lock hand-off** — releasing a tracked lock stores the releaser's
  clock and the next acquirer merges it
  (:meth:`~ThreadSanitizer.on_acquire` /
  :meth:`~ThreadSanitizer.on_release`; :class:`TrackedCondition` is the
  drop-in ``self._lock`` of an instrumented
  :class:`~repro.serve.service.SolverService`);
* **program order** — each thread's own clock component ticks per
  observed event.

Detection is FastTrack-style: per ``(domain, buffer)`` location the
sanitizer keeps the last write (thread, op, clock) and the most recent
read of each thread; a write causally concurrent with the last write
*or* any read — or a read concurrent with the last write — is reported
as a ``thread-race`` :class:`~repro.check.findings.Finding` with
op/thread/buffer provenance (and raised as :class:`ThreadRaceError` in
``strict`` mode).  Detection is clock-based, not schedule-based: the
GIL may serialise the Python threads, but a missing barrier still shows
up because no happens-before edge orders the accesses.

A *domain* is one race-detection universe — ``"rank0"`` for a sweep
engine, ``"service:solver"`` for a service — so a single sanitizer can
watch a whole world plus the service layered on top without
cross-talk.  Thread idents are unbound at :meth:`~ThreadSanitizer.on_join`
because one ident serves many logical threads (CPython reuses them
after a join, and a parked comm thread runs every region of its engine);
use a fresh sanitizer per run/session (mirroring the
fresh-:class:`~repro.check.recorder.CommRecorder`-per-run convention of :func:`~repro.check.driver.check_spmvm`).

Like :class:`~repro.check.recorder.CommRecorder`, the sanitizer is
strictly opt-in: every instrumentation site in the interpreter, engine
and service sits behind an ``is not None`` check, so uninstrumented
runs pay nothing (:func:`repro.bench.suite.sanitizer_guard` holds the
*instrumented* overhead under 20% on the task-mode sweep).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.check.findings import CheckReport, Finding

__all__ = [
    "ThreadRaceError",
    "ThreadSanitizer",
    "TrackedCondition",
]


class ThreadRaceError(RuntimeError):
    """Raised in strict mode when two threads race on one buffer."""

    def __init__(self, finding: Finding) -> None:
        super().__init__(finding.describe())
        self.finding = finding


# ----------------------------------------------------------------------
# vector-clock primitives over dynamic thread sets
#
# Rank clocks (repro.check.vclock) are fixed-width tuples because the
# rank count is known up front; threads come and go, so these clocks
# are sparse {tid: count} dicts with the same ordering semantics.
# ----------------------------------------------------------------------
def _leq(a: dict[int, int], b: dict[int, int]) -> bool:
    return all(b.get(t, 0) >= n for t, n in a.items())


def _concurrent(a: dict[int, int], b: dict[int, int]) -> bool:
    return not _leq(a, b) and not _leq(b, a)


def _merge_into(dst: dict[int, int], src: dict[int, int]) -> None:
    for t, n in src.items():
        if n > dst.get(t, 0):
            dst[t] = n


class _Access(NamedTuple):
    """One recorded access: which logical thread, by which op, when."""

    tid: int
    thread: str
    op: str
    mode: str
    clock: dict[int, int]


class _ThreadState:
    """Sanitizer-side identity of one thread within one domain."""

    __slots__ = ("clock", "ident", "name", "tid")

    def __init__(self, tid: int, name: str, clock: dict[int, int]) -> None:
        self.tid = tid
        self.name = name
        self.clock = clock
        self.ident: int | None = None  # OS ident while bound (reused by CPython)

    def tick(self) -> None:
        self.clock[self.tid] = self.clock.get(self.tid, 0) + 1


class _Location:
    """FastTrack-lite state of one (domain, buffer) location."""

    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: _Access | None = None
        self.reads: dict[int, _Access] = {}  # tid -> most recent read


class ThreadSanitizer:
    """Happens-before race detector for the threads of one run.

    All methods are thread-safe (one internal lock serialises clock
    updates — the sanitizer itself is a valid synchronisation-free
    observer because every edge it records corresponds to a real one).
    ``strict=True`` raises :class:`ThreadRaceError` at the second racy
    access; the default collects findings for :meth:`finalize`.
    """

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self.findings: list[Finding] = []
        self.events_observed = 0
        self._lock = threading.Lock()
        self._threads: dict[tuple[str, int], _ThreadState] = {}  # (domain, ident)
        self._spawned: dict[tuple[str, int], _ThreadState] = {}  # (domain, tid)
        self._by_tid: dict[tuple[str, int], _ThreadState] = {}
        self._next_tid: dict[str, int] = {}
        self._locations: dict[tuple[str, str], _Location] = {}
        self._lock_clocks: dict[tuple[str, str], dict[int, int]] = {}
        self._reported: set[frozenset] = set()

    # ------------------------------------------------------------------
    # thread identity
    # ------------------------------------------------------------------
    def _alloc_locked(self, domain: str, name: str, clock: dict[int, int]) -> _ThreadState:
        tid = self._next_tid.get(domain, 0)
        self._next_tid[domain] = tid + 1
        st = _ThreadState(tid, name, clock)
        self._by_tid[(domain, tid)] = st
        return st

    def _state_locked(self, domain: str) -> _ThreadState:
        """This OS thread's state in *domain*, auto-registered on first use."""
        ident = threading.get_ident()
        st = self._threads.get((domain, ident))
        if st is None:
            st = self._alloc_locked(domain, threading.current_thread().name, {})
            st.tick()
            st.ident = ident
            self._threads[(domain, ident)] = st
        return st

    def on_spawn(self, domain: str, name: str) -> int:
        """Record a thread spawn; returns the child's token.

        Called on the *spawning* thread before the child can run (before
        ``Thread.start()``, or before a region is handed to a parked
        thread).  The child inherits a copy of the spawner's clock —
        everything the spawner did before the spawn happens-before
        everything the child does.  The child must call :meth:`on_thread_start` with
        the returned token as its first sanitized action.
        """
        with self._lock:
            parent = self._state_locked(domain)
            parent.tick()
            child = self._alloc_locked(domain, name, dict(parent.clock))
            child.tick()
            self._spawned[(domain, child.tid)] = child
            self.events_observed += 1
            return child.tid

    def on_thread_start(self, domain: str, token: int) -> None:
        """Bind the calling OS thread to the spawned identity *token*."""
        with self._lock:
            child = self._spawned.pop((domain, token), None)
            if child is None:
                raise ValueError(f"unknown or already-bound spawn token {token} in {domain!r}")
            child.ident = threading.get_ident()
            self._threads[(domain, child.ident)] = child

    def on_join(self, domain: str, token: int) -> None:
        """Record a join: the caller merges the child's final clock.

        Also unbinds the child's OS ident — the ident will serve another
        logical thread (CPython reuses idents after a join; a parked comm
        thread runs the next region), and a stale binding would splice
        this one's clock into it.
        """
        with self._lock:
            parent = self._state_locked(domain)
            child = self._by_tid.get((domain, token))
            if child is None:
                raise ValueError(f"unknown thread token {token} in {domain!r}")
            self._spawned.pop((domain, token), None)
            if child.ident is not None:
                bound = self._threads.get((domain, child.ident))
                if bound is child:
                    del self._threads[(domain, child.ident)]
                child.ident = None
            _merge_into(parent.clock, child.clock)
            parent.tick()
            self.events_observed += 1

    # ------------------------------------------------------------------
    # lock hand-off edges
    # ------------------------------------------------------------------
    def on_acquire(self, domain: str, lock_id: str) -> None:
        """The calling thread acquired *lock_id*: merge the last release."""
        with self._lock:
            st = self._state_locked(domain)
            held = self._lock_clocks.get((domain, lock_id))
            if held is not None:
                _merge_into(st.clock, held)
            st.tick()
            self.events_observed += 1

    def on_release(self, domain: str, lock_id: str) -> None:
        """The calling thread is releasing *lock_id*: publish its clock."""
        with self._lock:
            st = self._state_locked(domain)
            st.tick()
            self._lock_clocks[(domain, lock_id)] = dict(st.clock)
            self.events_observed += 1

    # ------------------------------------------------------------------
    # access detection
    # ------------------------------------------------------------------
    def on_access(self, domain: str, buffer: str, mode: str, *, op: str = "") -> None:
        """Record one read (``mode="r"``) or write (``mode="w"``) of *buffer*.

        Reports a ``thread-race`` finding when the access is causally
        concurrent with a conflicting access by another thread (write
        vs. anything, read vs. the last write).
        """
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        racy: Finding | None = None
        with self._lock:
            st = self._state_locked(domain)
            st.tick()
            self.events_observed += 1
            loc = self._locations.get((domain, buffer))
            if loc is None:
                loc = self._locations[(domain, buffer)] = _Location()
            cur = _Access(st.tid, st.name, op, mode, dict(st.clock))
            w = loc.last_write
            if w is not None and w.tid != cur.tid and _concurrent(w.clock, cur.clock):
                racy = self._record_locked(domain, buffer, w, cur) or racy
            if mode == "w":
                for r in loc.reads.values():
                    if r.tid != cur.tid and _concurrent(r.clock, cur.clock):
                        racy = self._record_locked(domain, buffer, r, cur) or racy
                loc.last_write = cur
                loc.reads.clear()
            else:
                loc.reads[cur.tid] = cur
        if racy is not None and self.strict:
            raise ThreadRaceError(racy)

    def _record_locked(
        self, domain: str, buffer: str, other: _Access, cur: _Access
    ) -> Finding | None:
        key = frozenset((
            (domain, buffer),
            (other.op, other.mode, other.thread),
            (cur.op, cur.mode, cur.thread),
        ))
        if key in self._reported:
            return None
        self._reported.add(key)
        words = {"r": "read", "w": "write"}
        finding = Finding(
            kind="thread-race",
            message=(
                f"{domain}: {words[cur.mode]} of {buffer!r} by "
                f"{cur.op or 'unknown-op'} on thread {cur.thread!r} is causally "
                f"concurrent with a {words[other.mode]} by "
                f"{other.op or 'unknown-op'} on thread {other.thread!r} — no "
                f"barrier, join or lock hand-off orders these accesses"
            ),
            details={
                "domain": domain,
                "buffer": buffer,
                "ops": (other.op, cur.op),
                "modes": (other.mode, cur.mode),
                "threads": (other.thread, cur.thread),
            },
        )
        self.findings.append(finding)
        return finding

    def finalize(self, context: str = "") -> CheckReport:
        """Snapshot the findings as a :class:`CheckReport`."""
        with self._lock:
            report = CheckReport(context=context)
            report.findings.extend(self.findings)
            report.events_observed = self.events_observed
            return report


class TrackedCondition:
    """A ``threading.Condition`` feeding lock hand-off edges to a sanitizer.

    Drop-in for the condition-variable-as-lock idiom of
    :class:`~repro.serve.service.SolverService`: ``with``, :meth:`wait`
    and :meth:`notify_all` delegate to a real Condition
    while every acquire merges the last releaser's clock and every
    release (including the implicit one inside :meth:`wait`) publishes
    the caller's.  All sanitizer records happen while the underlying
    lock is held, so the recorded hand-off order is the real one.
    """

    __slots__ = ("_cond", "_domain", "_lock_id", "_san")

    def __init__(self, sanitizer: ThreadSanitizer, domain: str, lock_id: str = "lock") -> None:
        self._cond = threading.Condition()
        self._san = sanitizer
        self._domain = domain
        self._lock_id = lock_id

    def __enter__(self) -> "TrackedCondition":
        self._cond.__enter__()
        self._san.on_acquire(self._domain, self._lock_id)
        return self

    def __exit__(self, *exc) -> None:
        self._san.on_release(self._domain, self._lock_id)
        self._cond.__exit__(*exc)

    def wait(self, timeout: float | None = None) -> bool:
        self._san.on_release(self._domain, self._lock_id)
        notified = self._cond.wait(timeout)
        self._san.on_acquire(self._domain, self._lock_id)
        return notified

    def notify_all(self) -> None:
        self._cond.notify_all()
