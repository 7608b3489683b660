"""Shared-capacity resources with weighted max-min fair sharing.

Everything that contends in the simulated machine — NUMA memory buses,
NIC injection links, torus link pools, intranode shared-memory pipes —
is a *resource* with a capacity (bytes/s).  A *flow* is one activity
(a compute phase's memory traffic, one message transfer) that demands
capacity on one or more resources simultaneously; its progress rate is
set by weighted max-min fairness (progressive filling) across all
resources it touches:

* memory-bus capacities are *functions of the active weight* (the
  saturation curves of Fig. 3: four threads draw more aggregate
  bandwidth than one),
* a flow's demand on a resource may be a multiple of its nominal size
  (torus messages consume ``bytes × hops`` of link-pool capacity),
* flows can be *paused* — the hook the simulated MPI uses to model
  progress semantics: a rendezvous transfer whose endpoints are outside
  the MPI library moves no bytes.

Implementation notes
--------------------
The engine is built to simulate hundreds of ranks with only the flows
that are alive costing anything.  Each :class:`Flow` carries its own
state (weight, bytes left, rate, paused flag and its
``(resource, multiplier)`` edges); the network keeps the live flows in
start order, and each resource's live flows in start order, and drops
a flow once it has finished.  Rate recomputations are (a) coalesced per
simulation instant — every rank entering ``Waitall`` at the same time
triggers *one* recalc — and (b) progressive filling driven by a
min-heap of per-resource fair shares: each round pops every resource
within a relative 1e-12 of the smallest share, freezes its flows at
that share, and recomputes the share of only the resources those flows
also touch (stale heap entries are skipped).  A resource's opening
share (its capacity over its runnable demand) and its list of runnable
flows are rebuilt only when a flow on it started, finished, paused or
resumed.  Every sum runs in flow start order: the order of the textbook
filling that rescans every unfrozen flow each round, so both give the
same rates bit for bit (``tests/test_flow_filling.py``).

(c) A recomputation fills only the connected component of the runnable
flow–resource graph that holds the changed resources; flows outside it
keep their rates.  Components meet only in the tie band, so the network
keeps the share of the round that closed each resource: a component
round within the band of an outside one, but not equal to it, falls
back to filling every live flow, and so does the recomputation after
any filling that froze a resource a hair from the round's share.
Busy time comes from a per-resource count of flows with a positive
rate, kept by the fillings and by completions.

(d) The code below is the *definition*; ``FlowNetwork(...)`` returns a
second executor of it wherever the C library of
:mod:`repro.sparse.native` loaded (:class:`_CompiledFlowNetwork`): the
settle, the re-sum, the component walk, the filling and the
next-completion scan in C, every float operation in the same order, so
both give the same bits.  The library is accepted only if it replays a
seeded probe (:func:`replay_mismatch`) exactly as this code does;
without it this code runs.  There is no switch between the two.
"""

from __future__ import annotations

import ctypes
import heapq
import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.frame.core import Simulator
from repro.frame.events import SimEvent

__all__ = ["Flow", "FlowNetwork", "ResourceStats"]

ResourceKey = Hashable
_EPS_BYTES = 1e-6
#: Resources whose fair share is within this relative band of the
#: smallest one are bottlenecks of the same filling round.
_TIE_BAND = 1.0 + 1e-12


@dataclass(frozen=True)
class ResourceStats:
    """Aggregated utilization of one resource over a simulation run.

    ``busy_seconds`` is the total simulated time during which at least
    one unpaused flow was drawing capacity from the resource;
    ``bytes_moved`` is the demand-weighted byte volume that crossed it
    (a 3-hop torus message counts 3x its payload on the link pool);
    ``max_concurrent_flows`` is the contention high-water mark and
    ``flows_started`` counts every flow that ever demanded the resource.
    """

    busy_seconds: float
    bytes_moved: float
    max_concurrent_flows: int
    flows_started: int

    def busy_fraction(self, total_seconds: float) -> float:
        """Fraction of *total_seconds* the resource was busy (0 if idle run)."""
        return self.busy_seconds / total_seconds if total_seconds > 0 else 0.0


class Flow:
    """Handle for one activity moving bytes through a set of resources.

    ``remaining`` (bytes left, as of the last engine update), ``rate``
    (bytes/s) and ``paused`` are read-only to callers: the network owns
    them and changes them through :meth:`FlowNetwork.pause` /
    :meth:`FlowNetwork.resume`.
    """

    __slots__ = ("size", "done", "label", "weight", "remaining", "rate", "paused",
                 "edges", "alive")

    def __init__(self, size: float, label: str, weight: float) -> None:
        self.size = float(size)
        self.done = SimEvent()
        self.label = label
        self.weight = float(weight)
        self.remaining = 0.0
        self.rate = 0.0
        self.paused = False
        self.edges: tuple[tuple[int, float], ...] = ()
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"Flow({self.label}, {self.remaining:.0f}/{self.size:.0f} B, "
            f"rate={self.rate:.3g} B/s{', paused' if self.paused else ''})"
        )


class FlowNetwork:
    """The shared-resource engine.

    Parameters
    ----------
    sim:
        The simulator supplying the clock and event scheduling.
    capacities:
        Mapping of resource key to a capacity function
        ``total_active_weight -> bytes/s``.  Plain links use a constant
        function; memory buses use their saturation curve.
    """

    def __new__(cls, *args, **kwargs):
        # the compiled executor runs wherever the library loaded
        if cls is FlowNetwork and _engine() is not None:
            cls = _CompiledFlowNetwork
        return object.__new__(cls)

    def __init__(
        self, sim: Simulator, capacities: dict[ResourceKey, Callable[[float], float]]
    ) -> None:
        self._setup(sim, capacities)
        self._live: dict[Flow, None] = {}  # alive flows, in start order
        # resource -> its live flows (paused ones too) and their
        # multipliers, in start order
        self._users: dict[int, list[tuple[Flow, float]]] = {}
        # resource with a runnable flow -> (sum of weight x multiplier,
        # capacity, the (flow, multiplier) list) over its runnable flows;
        # stale for the resources in _changed until the next recomputation
        self._sums: dict[int, tuple[float, float, list[tuple[Flow, float]]]] = {}
        self._changed: set[int] = set()
        # resource -> number of its flows with a positive rate
        self._running: dict[int, int] = {}
        # resource -> the fair share of the filling round that closed
        # it, and those shares sorted (one entry per resource)
        self._closed_at: dict[int, float] = {}
        self._levels: list[float] = []
        # the last filling froze resources a hair apart together, so its
        # rates may hold a cross-component tie
        self._full_next = False
        # per-resource utilization accounting
        nres = len(self._cap_fns)
        self._res_busy = [0.0] * nres
        self._res_bytes = [0.0] * nres
        self._res_hwm = [0] * nres

    @classmethod
    def _definition(cls, sim: Simulator, capacities: dict) -> "FlowNetwork":
        """The Python executor, whether or not the compiled one loaded."""
        net = object.__new__(cls)
        net.__init__(sim, capacities)
        return net

    def _setup(self, sim: Simulator, capacities: dict) -> None:
        """State both executors keep in Python."""
        self._sim = sim
        self._res_index = {key: ri for ri, key in enumerate(capacities)}
        self._cap_fns = list(capacities.values())
        self._res_flows = [0] * len(self._cap_fns)
        self._last_update = sim.now
        self._epoch = 0
        self._recalc_pending_at: float | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        size: float,
        demands: dict[ResourceKey, float],
        *,
        weight: float = 1.0,
        paused: bool = False,
        label: str = "",
    ) -> Flow:
        """Begin a transfer of *size* bytes.

        ``demands`` maps resource keys to demand multipliers (1.0 means
        the flow consumes its own rate on the resource; a torus message
        with 3 hops uses multiplier 3.0 on the link pool).  Returns the
        flow; its ``done`` event fires on completion.
        """
        if not 0 <= size < math.inf:
            raise ValueError(f"flow size must be finite and >= 0, got {size}")
        if not demands:
            raise ValueError("a flow needs at least one resource demand")
        if not 0 < weight < math.inf:
            raise ValueError(f"flow weight must be finite and positive, got {weight}")
        if not all(0 <= mult < math.inf for mult in demands.values()):
            raise ValueError(f"demand multipliers must be finite and >= 0, got {demands}")
        res_ids = [self._res_index[k] for k in demands]  # KeyError for unknown keys
        for rid in res_ids:
            self._res_flows[rid] += 1
        flow = self._flow_type(size, label, weight)
        if size <= _EPS_BYTES:
            # degenerate flow: complete via the queue so ordering relative
            # to other same-instant events stays consistent
            self._sim.schedule(0.0, lambda: flow.done.succeed(flow))
            return flow
        self._settle()
        self._admit(flow, res_ids, [float(m) for m in demands.values()], bool(paused))
        self._mark_dirty()
        return flow

    def pause(self, flow: Flow) -> None:
        """Stop a flow's progress (models absent MPI progress)."""
        if flow.alive and not flow.paused:
            self._set_paused(flow, True)

    def resume(self, flow: Flow) -> None:
        """Resume a paused flow."""
        if flow.alive and flow.paused:
            self._set_paused(flow, False)

    def live_flows(self) -> list[Flow]:
        """The flows that have not finished, in start order."""
        return list(self._live)

    def resource_stats(self) -> dict[ResourceKey, ResourceStats]:
        """Per-resource utilization accumulated so far.

        Busy time and byte counts are settled up to the current simulated
        instant before the snapshot is taken.
        """
        self._settle()
        busy, moved, hwm = self._stats()
        return {
            key: ResourceStats(
                busy_seconds=busy[ri],
                bytes_moved=moved[ri],
                max_concurrent_flows=hwm[ri],
                flows_started=self._res_flows[ri],
            )
            for key, ri in self._res_index.items()
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    _flow_type = Flow

    def _admit(self, flow: Flow, res_ids: list[int], mults: list[float], paused: bool) -> None:
        """Make *flow* live (settled up to now)."""
        flow.remaining = flow.size
        flow.paused = paused
        flow.edges = tuple(zip(res_ids, mults))
        flow.alive = True
        self._live[flow] = None
        for rid, mult in flow.edges:
            self._users.setdefault(rid, []).append((flow, mult))
            self._changed.add(rid)

    def _stats(self) -> tuple[list[float], list[float], list[int]]:
        """Busy seconds, bytes moved and high-water mark per resource."""
        return self._res_busy, self._res_bytes, self._res_hwm

    def _set_paused(self, flow: Flow, paused: bool) -> None:
        self._settle()
        flow.paused = paused
        self._changed.update(rid for rid, _mult in flow.edges)
        self._mark_dirty()

    def _mark_dirty(self) -> None:
        """Coalesce rate recomputation: many flow changes at one instant
        (every rank entering Waitall together) trigger a single recalc."""
        self._epoch += 1  # invalidate any scheduled completion check
        if self._recalc_pending_at == self._sim.now:
            return
        self._recalc_pending_at = self._sim.now

        def do_recalc() -> None:
            self._recalc_pending_at = None
            self._reschedule()

        self._sim.schedule(0.0, do_recalc)

    def _settle(self) -> None:
        """Advance all flows to the current instant; complete finished ones.

        Only a flow that moved can finish: a live flow always has more
        than ``_EPS_BYTES`` left after a settle.
        """
        dt = self._sim.now - self._last_update
        self._last_update = self._sim.now
        if dt <= 0:
            return
        res_bytes = self._res_bytes
        eps = _EPS_BYTES
        finished = []
        for f in self._live:
            rate = f.rate
            if f.paused or rate <= 0:
                continue
            for rid, mult in f.edges:
                res_bytes[rid] += rate * mult * dt
            left = f.remaining - rate * dt
            f.remaining = left
            if left <= eps:
                finished.append(f)
        res_busy = self._res_busy
        for rid in self._running:
            res_busy[rid] += dt
        if finished:
            running = self._running
            for f in finished:
                f.alive = False
                f.rate = 0.0
                f.remaining = 0.0
                # removed before any callback runs: a flow started from
                # one lands after the survivors
                del self._live[f]
                for rid, _mult in f.edges:
                    if running[rid] == 1:
                        del running[rid]
                    else:
                        running[rid] -= 1
            gone = {rid for f in finished for rid, _mult in f.edges}
            for rid in gone:
                users = [u for u in self._users[rid] if u[0].alive]
                if users:
                    self._users[rid] = users
                else:
                    del self._users[rid]
            self._changed |= gone
            for f in finished:
                f.done.succeed(f)

    def _recompute_rates(self) -> None:
        """Re-sum the changed resources, then fill their component.

        A flow's rate depends only on the connected component of the
        runnable flow–resource graph that holds it, except through the
        tie band: a round freezes every resource within a relative 1e-12
        of its share, whichever component it is in.  So only the
        component of the changed resources is filled (nothing, when no
        runnable flow is left on them), unless one of its rounds lands a
        hair from — within the band of, but not equal to — the round
        that closed an outside resource.  Then, and after any filling
        that froze a resource a hair from its round's share, every live
        flow is filled again.
        """
        sums = self._sums
        hwm = self._res_hwm
        any_runnable = False
        for rid in self._changed:
            weight_on = denom = 0.0
            runnable = []
            for u in self._users.get(rid, ()):
                f = u[0]
                if f.paused:
                    f.rate = 0.0
                else:
                    weight_on += f.weight
                    denom += f.weight * u[1]
                    runnable.append(u)
            if not runnable:
                sums.pop(rid, None)
                self._running.pop(rid, None)
                self._forget_level(rid)
                continue
            any_runnable = True
            if len(runnable) > hwm[rid]:
                hwm[rid] = len(runnable)  # contention high-water mark
            c = max(0.0, float(self._cap_fns[rid](weight_on)))
            sums[rid] = (denom, c, runnable)
        if self._full_next or (any_runnable and not self._fill(*self._component())):
            self._fill_all()
        self._changed.clear()

    def _component(self) -> tuple[list[Flow], dict[int, list[tuple[Flow, float]]]]:
        """The runnable flows reachable from the changed resources,
        walking from resource to runnable flow to resource, and the
        runnable users of every resource with one; marks each flow found
        unfrozen (rate -1)."""
        sums = self._sums
        rids = [rid for rid in self._changed if rid in sums]
        seen = set(self._changed)
        flows = []
        runnable = {}
        for rid in rids:  # grows while it is walked
            users = runnable[rid] = sums[rid][2]
            for f, _mult in users:
                if f.rate >= 0:
                    f.rate = -1.0
                    flows.append(f)
                    for r, _m in f.edges:
                        if r not in seen:
                            seen.add(r)
                            rids.append(r)
        return flows, runnable

    def _forget_level(self, rid: int) -> None:
        """Drop the share of the round that closed *rid*, if any."""
        level = self._closed_at.pop(rid, None)
        if level is not None:
            levels = self._levels
            del levels[bisect_left(levels, level)]

    def _fill_all(self) -> None:
        """Fill every live flow from scratch."""
        flows = []
        for f in self._live:
            if f.paused:
                f.rate = 0.0
            else:
                f.rate = -1.0
                flows.append(f)
        self._closed_at.clear()
        self._levels.clear()
        self._running.clear()
        self._fill(flows, {rid: s[2] for rid, s in self._sums.items()})

    def _fill(self, flows: list[Flow], pending: dict[int, list[tuple[Flow, float]]]) -> bool:
        """Weighted max-min fair allocation (progressive filling) of
        *flows*, whose rates are -1, over the resources they touch, the
        keys of *pending*: each one's runnable users, in start order.

        A resource is *open* while it has a current heap entry; it
        closes when it is a round's bottleneck (all its flows freeze) or
        has no unfrozen demand left, and with non-negative multipliers it
        never reopens.  An open resource's ``pending`` list drops each
        flow once it froze.  Gives up and returns False at a round whose
        share is a near-tie of an outside one (never in a full filling,
        which keeps no outside share).  A filling that completes marks
        the next one full if any round froze a resource whose share was
        not the round's own: that resource may sit in another component,
        which a later component filling would not revisit.
        """
        sums = self._sums
        levels = self._levels
        heap: list[tuple[float, int, int]] = []
        for rid in pending:
            self._forget_level(rid)
            denom, c, _users = sums[rid]
            if denom > 0:
                heap.append((c / denom, len(heap), rid))
        heapq.heapify(heap)
        entry = {rid: t for _s, t, rid in heap}  # open resource -> tag of its current entry
        consumed = dict.fromkeys(entry, 0.0)
        tag = len(heap)
        unfrozen = len(flows)
        closed = []  # (resource, share of the round that closed it)
        exact = True
        stalled = False  # a flow froze at rate 0
        while heap:
            s_min, t, rid = heap[0]
            if entry.get(rid) != t:
                heapq.heappop(heap)  # stale
                continue
            if s_min == math.inf:  # pragma: no cover - numerical guard
                break
            limit = s_min * _TIE_BAND
            if levels:
                i = bisect_left(levels, s_min)
                j = bisect_right(levels, s_min, i)
                if (i and s_min <= levels[i - 1] * _TIE_BAND) or (
                    j < len(levels) and levels[j] <= limit
                ):
                    return False
            frozen = []
            while heap and heap[0][0] <= limit:
                s, t, rid = heapq.heappop(heap)
                if entry.get(rid) != t:
                    continue
                del entry[rid]
                closed.append((rid, s_min))
                if s != s_min:
                    exact = False
                for f, _mult in pending[rid]:
                    if f.rate < 0:
                        f.rate = f.weight * s_min
                        frozen.append(f)
                        if not f.rate:
                            stalled = True
            unfrozen -= len(frozen)
            for rid in {rid for f in frozen for rid, _mult in f.edges}:
                if rid not in entry:
                    continue  # closed: nothing left to share
                c = consumed[rid]
                denom = 0.0
                left = []
                for u in pending[rid]:
                    f, mult = u
                    if f.rate >= 0:  # frozen this round
                        c += f.rate * mult
                    else:
                        denom += f.weight * mult
                        left.append(u)
                consumed[rid] = c
                if denom > 0:
                    pending[rid] = left
                    entry[rid] = tag
                    heapq.heappush(heap, (max(0.0, sums[rid][1] - c) / denom, tag, rid))
                    tag += 1
                else:
                    del entry[rid]
        if unfrozen:  # pragma: no cover - zero multipliers only, or the guard above
            stalled = True
            for f in flows:
                if f.rate < 0:
                    f.rate = 0.0
        closed_at = self._closed_at
        for rid, level in closed:
            closed_at[rid] = level
            insort(levels, level)
        running = self._running
        for rid in pending:
            users = sums[rid][2]
            n = sum(f.rate > 0 for f, _mult in users) if stalled else len(users)
            if n:
                running[rid] = n
            else:
                running.pop(rid, None)
        self._full_next = not exact
        return True

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        self._settle()
        self._recompute_rates()
        self._epoch += 1
        dts = [f.remaining / f.rate for f in self._live if f.rate > 0]
        if dts:
            self._schedule_completion(min(dts))

    def _schedule_completion(self, delay: float) -> None:
        """Reschedule after *delay*, unless something changes first."""
        epoch = self._epoch

        def on_completion() -> None:
            if epoch == self._epoch:
                self._reschedule()

        self._sim.schedule(delay, on_completion)


def _engine():
    """The compiled flow engine, or None where the library is off."""
    from repro.sparse import native

    return native._flow


class _CompiledFlow(Flow):
    """A flow of the compiled executor: its bytes left live in the
    network's array and are read from there."""

    __slots__ = ("_net", "_slot")

    def __init__(self, size: float, label: str, weight: float) -> None:
        self.size = float(size)
        self.done = SimEvent()
        self.label = label
        self.weight = float(weight)
        self.rate = 0.0
        self.paused = False
        self.alive = False
        self._net = None
        self._slot = -1

    @property
    def remaining(self) -> float:
        """Bytes left, as of the last engine update."""
        return float(self._net._left[self._slot]) if self.alive else 0.0


#: The arrays of the C ``FlowNet``, per dtype in the order they share one
#: block: one entry per flow slot, per (slot, edge), or per resource (plus
#: one); the results are sized for the larger of slots and resources.
_ARRAYS = {
    np.float64: (
        ("weight", "slot"), ("left", "slot"), ("rate", "slot"), ("shown", "slot"),
        ("emult", "edge"), ("umult", "edge"), ("outd", "result"),
        *((name, "resource") for name in (
            "busy", "bytes", "denom", "cap", "level", "acc_w", "acc_d", "share", "consumed",
            "closed_level")),
    ),
    np.int64: (
        ("paused", "slot"), ("nedge", "slot"), ("live", "slot"), ("flows", "slot"),
        ("frozen", "slot"), ("erid", "edge"), ("uslot", "edge"), ("out", "result"),
        *((name, "resource") for name in (
            "hwm", "running", "summed", "has_level", "changed", "chlist", "acc_n", "uoff",
            "plen", "open", "stamp", "rids", "closed", "npos")),
    ),
}


class _CompiledFlowNetwork(FlowNetwork):
    """The second executor of the engine above: the same settle, re-sum,
    component walk, filling and next-completion scan in C
    (:mod:`repro.sparse.native`), float operation for float operation.

    Every flow holds a slot of the numpy arrays this object owns; C works
    on them through the addresses in one ``FlowNet`` struct.  Python keeps
    what calls back into Python: the capacity functions (C names the
    changed resources and their active weights, Python evaluates them),
    the ``done`` events of finished flows, and the ``rate`` of every flow
    whose rate changed.
    """

    _flow_type = _CompiledFlow

    def __init__(self, sim: Simulator, capacities: dict, engine=None) -> None:
        self._setup(sim, capacities)
        engine = engine or _engine()
        self._c_start, self._c_pause = engine.start, engine.pause
        self._c_settle, self._c_resum, self._c_fill = engine.settle, engine.resum, engine.fill
        self._state = engine.FlowNet()
        self._addr = ctypes.addressof(self._state)
        self._state.nres = len(self._cap_fns)
        self._where: dict[str, tuple[np.ndarray, int, int]] = {}  # array -> block, offset, size
        self._slot_flow: list[_CompiledFlow | None] = []
        self._free: list[int] = []
        self._grow(32, 4)

    def _grow(self, slots: int, stride: int) -> None:
        """Room for *slots* flows of up to *stride* resources each: new
        arrays (one block per dtype), holding what the old ones held, and
        the struct pointed at them."""
        state, before = self._state, len(self._slot_flow)
        nres = state.nres + 1
        sizes = {"slot": slots, "edge": slots * stride, "resource": nres,
                 "result": max(slots, nres)}
        old, self._where = self._where, {}
        for dtype, fields in _ARRAYS.items():
            block = np.zeros(sum(sizes[kind] for _name, kind in fields), dtype)
            base = ctypes.addressof(ctypes.c_byte.from_buffer(block))
            at = 0
            for name, kind in fields:
                setattr(state, name, base + 8 * at)
                self._where[name] = (block, at, sizes[kind])
                at += sizes[kind]
        for fields in _ARRAYS.values() if before else ():
            for name, kind in fields:
                block, at, size = old[name]
                held, array = block[at : at + size], self._array(name)
                if kind == "edge":  # re-lay each slot's edges at the new stride
                    width = state.stride
                    array.reshape(slots, stride)[:before, :width] = held.reshape(before, width)
                else:
                    array[:size] = held
        state.stride = self._stride = stride
        self._left = self._array("left")
        self._erid, self._emult = self._array("erid"), self._array("emult")
        self._out, self._outd = self._array("out"), self._array("outd")
        self._slot_flow += [None] * (slots - before)
        self._free += range(slots - 1, before - 1, -1)

    def _array(self, name: str) -> np.ndarray:
        block, at, size = self._where[name]
        return block[at : at + size]

    def _admit(self, flow, res_ids, mults, paused):
        if not self._free or len(res_ids) > self._stride:
            self._grow(2 * len(self._slot_flow), max(self._stride, len(res_ids)))
        slot = self._free.pop()
        flow._net, flow._slot = self, slot
        flow.paused = paused
        flow.alive = True
        self._slot_flow[slot] = flow
        at = slot * self._stride
        erid, emult = self._erid, self._emult
        for i, rid in enumerate(res_ids):
            erid[at + i] = rid
            emult[at + i] = mults[i]
        self._c_start(self._addr, slot, len(res_ids), paused, flow.weight, flow.size)

    def live_flows(self):
        slots = self._array("live")[: self._state.nlive].tolist()
        return [self._slot_flow[slot] for slot in slots]

    def _stats(self):
        nres = self._state.nres
        return tuple(self._array(name)[:nres].tolist() for name in ("busy", "bytes", "hwm"))

    def _set_paused(self, flow, paused):
        self._settle()
        flow.paused = paused
        if flow.alive:  # else it finished in the settle, which marked its resources
            self._c_pause(self._addr, flow._slot, paused)
        self._mark_dirty()

    def _settle(self) -> None:
        now = self._sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        n = self._c_settle(self._addr, dt)
        if n:
            slot_flow, free = self._slot_flow, self._free
            finished = []
            for slot in self._out[:n].tolist():
                f = slot_flow[slot]
                f.alive = False
                f.rate = 0.0
                slot_flow[slot] = None
                free.append(slot)
                finished.append(f)
            for f in finished:
                f.done.succeed(f)

    def _reschedule(self) -> None:
        self._settle()
        out, outd = self._out, self._outd
        need = self._c_resum(self._addr)
        if need:
            cap_fns = self._cap_fns
            for i in range(need):
                outd[i] = float(cap_fns[out.item(i)](outd.item(i)))
        changed = self._c_fill(self._addr)
        if changed:
            slot_flow = self._slot_flow
            for i in range(changed):
                slot_flow[out.item(i)].rate = outd.item(i)
        self._epoch += 1
        delay = self._state.delay
        if delay >= 0:  # -1: no flow is moving
            self._schedule_completion(delay)


class _LoggedSimulator(Simulator):
    """A simulator that writes every delay it is asked to schedule to a log."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self._log = log

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self._log.append(float(delay).hex())
        super().schedule(delay, fn)


def _replay_probe(network: Callable, log: list) -> None:
    """A seeded run of starts, pauses, resumes and finishes through the
    network *network* builds, writing every scheduled delay and, after
    each step, every flow's state, rate and bytes left to *log*, and at
    the end every resource's statistics.

    First the tie band, on resources of capacity 1 (5), 1 - 2e-13 (6),
    1 + 5e-13 (7) and 1 + 1.01e-12 (8), one flow each: a standing flow
    and a short one started together (one filling closes both, and the
    next one is full), then short ones started later (a component round
    a hair from, or just outside the band of, a closed resource), then a
    settle that leaves a flow 5e-6 bytes, and one 5e-7 bytes, from its
    end, and three flows whose weights sum differently in another order.
    Then random churn over resources 0-4: two constant capacities,
    two saturation curves and a capacity of 0 (its flows stall), random
    weights and multipliers (0 among them: a flow with no bottleneck).
    """
    rng = random.Random(1101_0091)
    sim = _LoggedSimulator(log)

    def curve(w: float) -> float:
        return 22.5 * w / (w + 0.8)

    caps = [lambda w: 10.0, curve, lambda w: 7.3, lambda w: 3.0 * curve(w), lambda w: 0.0]
    caps += [lambda w, c=c: c for c in (
        1.0, 1.0 - 2e-13, 1.0 + 5e-13, 1.0 + 1.01e-12, 1.0, 0.5, 1.5 + 5e-13)]
    net = network(sim, dict(enumerate(caps)))
    flows: list[Flow] = []

    def observe() -> None:
        log.append(sim.now.hex())
        log.extend((f.alive, f.paused, f.rate.hex(), f.remaining.hex()) for f in flows)

    def run(until: float) -> None:
        sim.run(until=until)
        observe()

    flows += [net.start_flow(1e9, {5: 1.0}), net.start_flow(0.5, {6: 1.0})]
    run(0.0)
    run(1.0)
    flows += [net.start_flow(0.5, {7: 1.0}), net.start_flow(0.75, {8: 1.0}, weight=1.5)]
    run(1.0)
    run(3.0)
    # a component whose second round lands a hair from resource 5's share
    flows += [net.start_flow(2.0, {10: 1.0, 11: 1.0}), net.start_flow(2.0, {11: 1.0})]
    run(3.0)
    run(4.0)
    flows.append(net.start_flow(2.0, {9: 1.0}))
    run(6.0 - 5e-6)
    net.resource_stats()  # settles 5e-6 bytes before the end: the flow stays
    observe()
    run(6.0)
    flows.append(net.start_flow(1.0, {9: 1.0}))
    run(7.0 - 5e-7)
    net.resource_stats()  # 5e-7 bytes before the end: it finishes here
    observe()
    # 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1: sums run in start order
    flows += [net.start_flow(3.0, {0: 1.0, 1: 0.5}, weight=w) for w in (0.1, 0.2, 0.3)]
    run(12.0)
    churn = flows[-1:]
    for _ in range(80):
        kind = rng.random()
        if kind < 0.45:
            rids = rng.sample(range(9) if rng.random() < 0.1 else range(5), rng.randint(1, 3))
            mults = [rng.choice((0.0, 0.5, 1.0, 1.7, 3.0, rng.uniform(0.1, 4.0))) for _ in rids]
            churn.append(net.start_flow(
                rng.choice((rng.uniform(1.0, 60.0), rng.uniform(0.1, 2.0), 1e-7)),
                dict(zip(rids, mults)),
                weight=rng.choice((0.3, 0.7, 1.0, 1.9, rng.uniform(0.1, 3.0))),
                paused=rng.random() < 0.2,
            ))
            flows.append(churn[-1])
            observe()
        elif kind < 0.62:
            (net.pause if kind < 0.53 else net.resume)(rng.choice(churn))
            observe()
        else:
            run(sim.now + rng.choice((0.0, rng.uniform(0.0, 3.0))))
    run(sim.now + 100.0)
    for stats in net.resource_stats().values():
        log.append((stats.busy_seconds.hex(), stats.bytes_moved.hex(),
                    stats.max_concurrent_flows, stats.flows_started))


def replay_mismatch(engine) -> str | None:
    """Replay the probe through the definition and through *engine* (a
    :class:`repro.sparse.native.FlowEngine`); where their logs first
    differ, or None."""
    want: list = []
    got: list = []
    _replay_probe(FlowNetwork._definition, want)
    _replay_probe(lambda sim, caps: _CompiledFlowNetwork(sim, caps, engine), got)
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"log entry {i}: {b} where the definition gives {a}"
    if len(want) != len(got):
        return f"{len(got)} log entries where the definition gives {len(want)}"
    return None
