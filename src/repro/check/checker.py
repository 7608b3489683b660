"""The dynamic prong: one per-run observer for ranks and threads.

Task mode (Fig. 4c of the paper) is correct only when two protocols
hold: the rank-level MPI protocol and the thread-level
``MPI_THREAD_FUNNELED`` one.  :class:`Checker` watches both in one run.
It is attached in one place, ``World(nranks, observer=checker)`` —
``run_spmd``, ``distributed_spmv`` / ``distributed_spmm`` and
``SolverService`` hand their ``observer=`` there — and every hook site
reads that one slot: the router and the collectives, every ``Comm``
(through its router), the sweep interpreter (through ``engine.comm``)
and the service lock (through the service's world).

**Ranks** — the observer interface of
:class:`repro.mpilite.router.Router` and
:class:`repro.mpilite.comm.CollectiveState`:

* one **vector clock** per rank — ticked on every send/receive/collective,
  merged on delivery — the happens-before relation that the message-race
  analysis (:mod:`repro.check.races`) is built on;
* a **wait-for graph** over blocked operations — receives waiting on a
  peer (edges suppressed while a matching message is in flight),
  collectives waiting on the ranks that have not arrived, and waits on
  ranks that already finished — with a stuck-set fixpoint that declares
  a deadlock the moment no blocked rank can ever be satisfied, naming
  the cycle.  This is the watchdog that turns mpilite's silent
  60-second collective hang into an immediate diagnosis;
* **request and message accounting**: requests never completed and
  messages never received are reported at :meth:`Checker.finalize`.

Like standard MPI correctness tools, the deadlock detector assumes one
communicating agent per rank (task mode's dedicated communication
thread is exactly that agent); the world-level ``timeout`` remains the
backstop for anything outside that model.

**Threads** — per-thread vector clocks inside each rank (the main
compute thread, the ``COMM_THREAD`` of task mode, the submitter and
worker threads of :mod:`repro.serve`), reporting any pair of
conflicting buffer accesses that no happens-before edge separates.
Edges come from four sources:

* **spawn** — the child starts with a copy of the spawner's clock
  (:meth:`Checker.on_spawn` / :meth:`~Checker.on_thread_start`).  A
  ``COMM_THREAD`` region's hand-off to the engine's parked communication
  thread is this edge: one spawn token per region, the same OS thread
  re-bound each time;
* **join** — the joining thread merges the child's final clock
  (:meth:`~Checker.on_join`; the interpreter calls it from the
  ``OMP_BARRIER`` that closes a ``COMM_THREAD`` region);
* **lock hand-off** — releasing a tracked lock stores the releaser's
  clock and the next acquirer merges it (:meth:`~Checker.on_acquire` /
  :meth:`~Checker.on_release`; :class:`TrackedCondition` is the service
  lock of an observed :class:`~repro.serve.service.SolverService`);
* **program order** — each thread's own clock component ticks per
  observed event.

Detection is FastTrack-style: per ``(domain, buffer)`` location the
checker keeps the last write and the most recent read of each thread,
each as an epoch (the thread and its own clock component then); a
write causally concurrent with the last write *or* any read — or a read
concurrent with the last write — is a ``thread-race`` finding with
op/thread/buffer provenance.  Detection is clock-based, not
schedule-based: the GIL may serialise the Python threads, but a missing
barrier still shows up because no edge orders the accesses.  A *domain*
is one race-detection universe — ``"rank0"`` for a sweep engine,
``"service:solver"`` for a service — so one checker watches a whole
world plus the service layered on top without cross-talk.

Both halves share one lock (a leaf: no hook calls out while holding
it), one ``findings`` list and one :meth:`~Checker.finalize`.  Use a
fresh checker per run: thread idents are recycled by CPython between
runs.  Every hook site sits behind an ``is not None`` check, so an
unobserved run pays nothing (:func:`repro.bench.suite.check_guard`
bounds the observed overhead on the task-mode sweep).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.check.findings import CheckReport, Finding
from repro.check.vclock import vc_merge, vc_new, vc_tick, vc_tick_merge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpilite.comm import Request

__all__ = ["Checker", "DeadlockError", "RecvEvent", "SendEvent", "TrackedCondition"]

# mirrors repro.mpilite.router without importing it (keeps this package
# usable for static-only work without pulling the runtime in)
_ANY = -1


class DeadlockError(RuntimeError):
    """Raised inside every blocked rank once a wait-for cycle is declared."""


class SendEvent(NamedTuple):
    """One observed send, with the sender's clock at posting time.

    A NamedTuple, not a dataclass: one is built per message on the
    instrumented hot path, and tuple construction is several times
    cheaper than frozen-dataclass ``__init__``.
    """

    eid: int
    src: int
    dst: int
    tag: int
    nbytes: int
    vc: tuple[int, ...]


class RecvEvent(NamedTuple):
    """One observed receive completion and the send it matched."""

    eid: int
    rank: int
    req_src: int  # requested source (may be ANY_SOURCE)
    req_tag: int  # requested tag (may be ANY_TAG)
    send: SendEvent

    @property
    def wildcard(self) -> bool:
        """Whether the receive used a wildcard source or tag."""
        return self.req_src == _ANY or self.req_tag == _ANY


@dataclass
class _Blocked:
    """One blocked operation (keyed by thread; at most one per rank in
    the one-communicating-agent model)."""

    rank: int
    kind: str  # "recv" | "collective"
    src: int = _ANY
    tag: int = _ANY
    gen: int = -1

    def describe(self) -> str:
        if self.kind == "collective":
            return f"rank {self.rank} blocked in collective generation {self.gen}"
        src = "ANY_SOURCE" if self.src == _ANY else str(self.src)
        tag = "ANY_TAG" if self.tag == _ANY else str(self.tag)
        return f"rank {self.rank} blocked in recv(source={src}, tag={tag})"


# ----------------------------------------------------------------------
# vector-clock primitives over dynamic thread sets
#
# Rank clocks (repro.check.vclock) are fixed-width tuples because the
# rank count is known up front; threads come and go, so these clocks
# are sparse {tid: count} dicts with the same ordering semantics.
# ----------------------------------------------------------------------
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
    epoch: int  # the thread's own clock component at the access


def _ordered(prior: _Access, clock: dict[int, int]) -> bool:
    """Whether *prior* happens-before a later event whose clock is *clock*.

    FastTrack's epoch test: *prior*'s thread ticked its own component at
    the access, so the later event is ordered after it exactly when its
    clock has seen that component — one lookup, not a comparison of
    whole vectors (and the later event can never precede *prior*).
    """
    return prior.epoch <= clock.get(prior.tid, 0)


class _ThreadState:
    """Checker-side identity of one thread within one domain."""

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


class Checker:
    """The per-run observer of one world: its ranks and its threads.

    Attach with ``World(nranks, observer=checker)`` (or the
    ``observer=`` of ``run_spmd``, the one-call drivers and
    ``SolverService``); call :meth:`finalize` after the run returns or
    fails to obtain the :class:`~repro.check.findings.CheckReport`.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._claimed = False
        self.findings: list[Finding] = []
        self.events_observed = 0
        self._lock = threading.Lock()
        # ranks: clocks, in-flight sends per (src, dst, tag) channel
        # (FIFO like the router), the observed history
        self._clock: list[tuple[int, ...]] = [vc_new(nranks) for _ in range(nranks)]
        self._inflight: dict[tuple[int, int, int], deque[SendEvent]] = {}
        self.sends: list[SendEvent] = []
        self.recvs: list[RecvEvent] = []
        self._next_eid = 0
        self._blocked: dict[tuple[int, int], _Blocked] = {}  # (rank, thread id) -> op
        self._finished: set[int] = set()
        self._coll_arrived: dict[int, set[int]] = {}
        self._coll_clocks: dict[int, dict[int, tuple[int, ...]]] = {}
        self._coll_exits: dict[int, int] = {}
        self._deadlock: Finding | None = None
        self._deadlock_ranks: set[int] = set()
        # set on every event that can turn a live state into a doomed one
        # (a rank blocks or finishes, an in-flight message is consumed);
        # sends and unblocks can only release, so they leave it alone
        self._dirty = False
        self._requests: dict[int, "Request"] = {}  # open irecvs by request id
        self._next_rid = 0
        # threads: identities per (domain, OS ident) and per (domain,
        # token), buffer locations, the clocks tracked locks published
        self._threads: dict[tuple[str, int], _ThreadState] = {}
        self._spawned: dict[tuple[str, int], _ThreadState] = {}
        self._by_tid: dict[tuple[str, int], _ThreadState] = {}
        self._next_tid: dict[str, int] = {}
        self._locations: dict[tuple[str, str], _Location] = {}
        self._lock_clocks: dict[tuple[str, str], dict[int, int]] = {}
        self._reported: set[frozenset] = set()

    def claim(self) -> None:
        """Taken by the :class:`~repro.mpilite.world.World` this checker
        observes, at its construction.  A second world raises
        ``ValueError`` at once: the first run's finished ranks and clocks
        would make a healthy second run read as a deadlock."""
        with self._lock:
            if self._claimed:
                raise ValueError(
                    "a Checker observes one run: this one already observes a world; "
                    "give each run a fresh Checker"
                )
            self._claimed = True

    # ------------------------------------------------------------------
    # router observer interface
    # ------------------------------------------------------------------
    def on_send(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        """A message was deposited (called under the router lock)."""
        with self._lock:
            self._clock[src] = vc_tick(self._clock[src], src)
            ev = SendEvent(self._next_eid, src, dst, tag, nbytes, self._clock[src])
            self._next_eid += 1
            self._inflight.setdefault((src, dst, tag), deque()).append(ev)
            self.sends.append(ev)
            self.events_observed += 1

    def on_recv_complete(self, dst: int, src: int, tag: int, req_src: int, req_tag: int) -> None:
        """A receive matched the in-flight message on (src, dst, tag)."""
        with self._lock:
            box = self._inflight.get((src, dst, tag))
            if not box:  # attached mid-world; nothing to correlate
                return
            ev = box.popleft()
            self._clock[dst] = vc_tick_merge(self._clock[dst], dst, ev.vc)
            self.recvs.append(RecvEvent(self._next_eid, dst, req_src, req_tag, ev))
            self._next_eid += 1
            self.events_observed += 1
            # consuming a message can only doom a rank that counted on it,
            # and only rank *dst* can ever receive from this channel — so
            # re-detection is needed only if another thread of dst is
            # blocked (outside the one-agent-per-rank model)
            tid = threading.get_ident()
            if any(
                b.rank == dst and key[1] != tid
                for key, b in self._blocked.items()
            ):
                self._dirty = True

    def on_recv_blocked(self, rank: int, src: int, tag: int) -> None:
        """*rank* is about to wait for a message (under the router lock)."""
        with self._lock:
            key = (rank, threading.get_ident())
            self._blocked[key] = _Blocked(rank, "recv", src=src, tag=tag)
            self._dirty = True
            self._detect_locked()
            self._raise_if_deadlocked(rank)

    def on_recv_unblocked(self, rank: int) -> None:
        """The wait of *rank*'s current thread ended (matched, timed out
        or deadlocked)."""
        with self._lock:
            self._blocked.pop((rank, threading.get_ident()), None)

    def check_blocked(self, rank: int) -> None:
        """Periodic probe from a blocked wait; raises on a declared deadlock."""
        with self._lock:
            self._detect_locked()
            self._raise_if_deadlocked(rank)

    # ------------------------------------------------------------------
    # collective observer interface
    # ------------------------------------------------------------------
    def on_collective_enter(self, rank: int, gen: int) -> None:
        """*rank* deposited into collective generation *gen*."""
        with self._lock:
            self._clock[rank] = vc_tick(self._clock[rank], rank)
            self._coll_arrived.setdefault(gen, set()).add(rank)
            self._coll_clocks.setdefault(gen, {})[rank] = self._clock[rank]
            self._blocked[(rank, threading.get_ident())] = _Blocked(rank, "collective", gen=gen)
            self.events_observed += 1
            self._dirty = True
            self._detect_locked()
            self._raise_if_deadlocked(rank)

    def on_collective_exit(self, rank: int, gen: int, completed: bool = True) -> None:
        """*rank* left generation *gen* (merging everyone's clock on success)."""
        with self._lock:
            self._blocked.pop((rank, threading.get_ident()), None)
            if completed:
                merged = self._clock[rank]
                for vc in self._coll_clocks.get(gen, {}).values():
                    merged = vc_merge(merged, vc)
                self._clock[rank] = merged
            self._coll_exits[gen] = self._coll_exits.get(gen, 0) + 1
            if self._coll_exits[gen] >= self.nranks:
                self._coll_arrived.pop(gen, None)
                self._coll_clocks.pop(gen, None)
                self._coll_exits.pop(gen, None)

    def on_rank_finished(self, rank: int) -> None:
        """*rank*'s SPMD function returned (or raised) — it will never
        send again, which can doom ranks still waiting on it."""
        with self._lock:
            self._finished.add(rank)
            self._dirty = True
            self._detect_locked()

    # ------------------------------------------------------------------
    # request tracking (called by Comm)
    # ------------------------------------------------------------------
    def on_request_open(self, req: "Request") -> None:
        """Register a nonblocking receive; one never completed leaks."""
        with self._lock:
            rid = self._next_rid
            self._next_rid += 1
            self._requests[rid] = req
            self.events_observed += 1
            req._on_done = lambda: self._on_request_done(rid)

    def _on_request_done(self, rid: int) -> None:
        with self._lock:
            self._requests.pop(rid, None)

    # ------------------------------------------------------------------
    # deadlock detection
    # ------------------------------------------------------------------
    def _inflight_match_locked(self, rank: int, src: int, tag: int) -> bool:
        for (s, d, t), box in self._inflight.items():
            if not box or d != rank:
                continue
            if (src == _ANY or s == src) and (tag == _ANY or t == tag):
                return True
        return False

    def _satisfiers(self, op: _Blocked) -> set[int]:
        """Ranks whose action could unblock *op*."""
        if op.kind == "collective":
            arrived = self._coll_arrived.get(op.gen, set())
            return {r for r in range(self.nranks) if r not in arrived}
        if op.src == _ANY:
            return {r for r in range(self.nranks) if r != op.rank}
        return {op.src}

    def _detect_locked(self) -> None:
        """Stuck-set fixpoint over the wait-for graph.

        Start from every finished or blocked rank; release any blocked
        rank with a matching in-flight message or a potential satisfier
        outside the stuck set; what remains blocked at the fixpoint is a
        deadlock.

        Deadlocks are stable: once a state is live it stays live until a
        doom-relevant event (``_dirty``), so periodic probes from blocked
        waits skip the fixpoint entirely when nothing changed.
        """
        if self._deadlock is not None or not self._blocked or not self._dirty:
            return
        self._dirty = False
        ops: dict[int, _Blocked] = {op.rank: op for op in self._blocked.values()}
        stuck = set(self._finished) | set(ops)
        changed = True
        while changed:
            changed = False
            for rank, op in ops.items():
                if rank not in stuck:
                    continue
                if op.kind == "recv" and self._inflight_match_locked(rank, op.src, op.tag):
                    stuck.discard(rank)
                    changed = True
                    continue
                satisfiers = self._satisfiers(op)
                if op.kind == "collective" and not satisfiers:
                    # everyone arrived: the generation is completing right now
                    stuck.discard(rank)
                    changed = True
                elif satisfiers - stuck:
                    stuck.discard(rank)
                    changed = True
        doomed = sorted(r for r in stuck if r in ops)
        if not doomed:
            return
        cycle = self._extract_cycle(ops, set(doomed))
        waits = [ops[r].describe() for r in doomed]
        finished = sorted(self._finished & {s for r in doomed for s in self._satisfiers(ops[r])})
        parts = ["deadlock: " + "; ".join(waits)]
        if cycle:
            parts.append("wait-for cycle " + " -> ".join(str(r) for r in cycle + [cycle[0]]))
        if finished:
            parts.append(
                "rank(s) " + ",".join(str(r) for r in finished) + " already finished"
            )
        self._deadlock = Finding(
            kind="deadlock",
            message="; ".join(parts),
            ranks=tuple(doomed),
            details={
                "cycle": cycle,
                "waits": waits,
                "finished": finished,
            },
        )
        self._deadlock_ranks = set(doomed)
        self.findings.append(self._deadlock)

    def _extract_cycle(self, ops: dict[int, _Blocked], doomed: set[int]) -> list[int]:
        """Walk concrete successors inside the doomed set to name a cycle."""
        for start in sorted(doomed):
            path: list[int] = []
            seen: dict[int, int] = {}
            rank = start
            while rank in doomed and rank not in seen:
                seen[rank] = len(path)
                path.append(rank)
                nxt = sorted(self._satisfiers(ops[rank]) & doomed)
                if not nxt:
                    break
                rank = nxt[0]
            else:
                if rank in seen:
                    return path[seen[rank]:]
        return []

    def _raise_if_deadlocked(self, rank: int) -> None:
        if self._deadlock is not None and rank in self._deadlock_ranks:
            raise DeadlockError(self._deadlock.message)

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
        everything the child does.  The child must call
        :meth:`on_thread_start` with the returned token as its first
        observed action.
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
        with self._lock:
            st = self._state_locked(domain)
            st.tick()
            self.events_observed += 1
            loc = self._locations.get((domain, buffer))
            if loc is None:
                loc = self._locations[(domain, buffer)] = _Location()
            clock, tid = st.clock, st.tid
            cur = _Access(tid, st.name, op, mode, clock[tid])
            w = loc.last_write
            if w is not None and w.tid != tid and not _ordered(w, clock):
                self._race_locked(domain, buffer, w, cur)
            if mode == "w":
                for r in loc.reads.values():
                    if r.tid != tid and not _ordered(r, clock):
                        self._race_locked(domain, buffer, r, cur)
                loc.last_write = cur
                loc.reads.clear()
            else:
                loc.reads[tid] = cur

    def _race_locked(self, domain: str, buffer: str, other: _Access, cur: _Access) -> None:
        key = frozenset((
            (domain, buffer),
            (other.op, other.mode, other.thread),
            (cur.op, cur.mode, cur.thread),
        ))
        if key in self._reported:
            return
        self._reported.add(key)
        words = {"r": "read", "w": "write"}
        self.findings.append(Finding(
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
        ))

    # ------------------------------------------------------------------
    # the report
    # ------------------------------------------------------------------
    def finalize(self, context: str = "") -> CheckReport:
        """The report: every finding so far plus the post-mortem analyses.

        Call after the run returned (or failed): adds leaked requests,
        unconsumed messages and message races (the latter verified by
        replaying the permuted matching, see :mod:`repro.check.races`)
        to the findings the live hooks recorded.  Idempotent.
        """
        from repro.check.races import analyze_races

        with self._lock:
            findings = list(self.findings)
            for req in self._requests.values():
                if req._done:
                    continue
                peer = "ANY_SOURCE" if req.peer == _ANY else str(req.peer)
                tag = "ANY_TAG" if req.tag == _ANY else str(req.tag)
                findings.append(Finding(
                    kind="leaked-request",
                    message=(
                        f"rank {req.rank}: {req.kind}(peer={peer}, tag={tag}) was "
                        f"never completed with wait() before world teardown"
                    ),
                    ranks=(req.rank,),
                    details={"op": req.kind, "peer": req.peer, "tag": req.tag},
                ))
            for (src, dst, tag), box in sorted(self._inflight.items()):
                if box:
                    findings.append(Finding(
                        kind="unconsumed-message",
                        message=(
                            f"{len(box)} message(s) from rank {src} to rank {dst} "
                            f"with tag {tag} were never received"
                        ),
                        ranks=(src, dst),
                        details={"tag": tag, "count": len(box)},
                    ))
            findings.extend(analyze_races(self.sends, self.recvs, self.nranks))
            return CheckReport(
                findings=findings, events_observed=self.events_observed, context=context
            )


class TrackedCondition:
    """A ``threading.Condition`` feeding lock hand-off edges to a checker.

    Drop-in for the condition-variable-as-lock idiom of
    :class:`~repro.serve.service.SolverService`: ``with``, :meth:`wait`
    and :meth:`notify_all` delegate to a real Condition
    while every acquire merges the last releaser's clock and every
    release (including the implicit one inside :meth:`wait`) publishes
    the caller's.  All checker records happen while the underlying
    lock is held, so the recorded hand-off order is the real one.
    """

    __slots__ = ("_checker", "_cond", "_domain", "_lock_id")

    def __init__(self, checker: Checker, domain: str, lock_id: str = "lock") -> None:
        self._cond = threading.Condition()
        self._checker = checker
        self._domain = domain
        self._lock_id = lock_id

    def __enter__(self) -> "TrackedCondition":
        self._cond.__enter__()
        self._checker.on_acquire(self._domain, self._lock_id)
        return self

    def __exit__(self, *exc) -> None:
        self._checker.on_release(self._domain, self._lock_id)
        self._cond.__exit__(*exc)

    def wait(self, timeout: float | None = None) -> bool:
        self._checker.on_release(self._domain, self._lock_id)
        notified = self._cond.wait(timeout)
        self._checker.on_acquire(self._domain, self._lock_id)
        return notified

    def notify_all(self) -> None:
        self._cond.notify_all()
