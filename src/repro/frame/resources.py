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
The engine is built to simulate hundreds of ranks: all per-flow state
lives in growable numpy arrays (a :class:`Flow` is a thin handle onto a
slot), the flow→resource incidence is an append-only edge list, and
rate recomputations are (a) coalesced per simulation instant — every
rank entering ``Waitall`` at the same time triggers *one* recalc — and
(b) fully vectorised, with every bottleneck resource at the current
minimum fair share frozen per filling round, so symmetric populations
converge in a handful of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.frame.core import Simulator
from repro.frame.events import SimEvent

__all__ = ["Flow", "FlowNetwork", "ResourceStats"]

ResourceKey = Hashable
_EPS_BYTES = 1e-6


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
    """Handle for one activity moving bytes through a set of resources."""

    __slots__ = ("slot", "size", "done", "label", "_net")

    def __init__(self, net: "FlowNetwork", slot: int, size: float, label: str) -> None:
        self._net = net
        self.slot = slot
        self.size = float(size)
        self.done = SimEvent()
        self.label = label

    @property
    def remaining(self) -> float:
        """Bytes left to move (as of the last engine update)."""
        return float(self._net._remaining[self.slot])

    @property
    def rate(self) -> float:
        """Current progress rate in bytes/s."""
        return float(self._net._rate[self.slot])

    @property
    def paused(self) -> bool:
        """Whether the flow is currently gated."""
        return bool(self._net._paused[self.slot])

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"Flow({self.label or self.slot}, {self.remaining:.0f}/{self.size:.0f} B, "
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

    _INITIAL = 64

    def __init__(
        self, sim: Simulator, capacities: dict[ResourceKey, Callable[[float], float]]
    ) -> None:
        self._sim = sim
        self._res_keys: list[ResourceKey] = []
        self._res_index: dict[ResourceKey, int] = {}
        self._cap_fns: list[Callable[[float], float]] = []
        for key, fn in capacities.items():
            self._res_index[key] = len(self._res_keys)
            self._res_keys.append(key)
            self._cap_fns.append(fn)
        # per-flow slot arrays
        n = self._INITIAL
        self._weight = np.zeros(n)
        self._remaining = np.zeros(n)
        self._rate = np.zeros(n)
        self._alive = np.zeros(n, dtype=bool)
        self._paused = np.zeros(n, dtype=bool)
        self._flows: list[Flow | None] = [None] * n
        self._n_slots = 0
        # append-only incidence (edges of dead flows are filtered lazily)
        cap = 4 * n
        self._e_flow = np.zeros(cap, dtype=np.int64)
        self._e_res = np.zeros(cap, dtype=np.int64)
        self._e_mult = np.zeros(cap)
        self._n_edges = 0
        self._last_update = sim.now
        self._epoch = 0
        self._recalc_pending_at: float | None = None
        # per-resource utilization accounting
        nres = len(self._res_keys)
        self._res_busy = np.zeros(nres)
        self._res_bytes = np.zeros(nres)
        self._res_hwm = np.zeros(nres, dtype=np.int64)
        self._res_flows = np.zeros(nres, dtype=np.int64)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def capacity_of(self, key: ResourceKey, weight: float = 1.0) -> float:
        """Capacity of one resource at the given active weight (bytes/s)."""
        return float(self._cap_fns[self._res_index[key]](weight))

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
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if not demands:
            raise ValueError("a flow needs at least one resource demand")
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        res_ids = [self._res_index[k] for k in demands]  # KeyError for unknown keys
        for rid in res_ids:
            self._res_flows[rid] += 1
        slot = self._n_slots
        self._ensure_slot_capacity(slot + 1)
        flow = Flow(self, slot, size, label)
        self._flows[slot] = flow
        self._n_slots += 1
        if size <= _EPS_BYTES:
            # degenerate flow: complete via the queue so ordering relative
            # to other same-instant events stays consistent
            self._weight[slot] = weight
            self._sim.schedule(0.0, lambda: flow.done.succeed(flow))
            return flow
        self._settle()
        self._weight[slot] = weight
        self._remaining[slot] = size
        self._rate[slot] = 0.0
        self._alive[slot] = True
        self._paused[slot] = paused
        self._ensure_edge_capacity(self._n_edges + len(res_ids))
        for rid, mult in zip(res_ids, demands.values()):
            e = self._n_edges
            self._e_flow[e] = slot
            self._e_res[e] = rid
            self._e_mult[e] = mult
            self._n_edges += 1
        self._mark_dirty()
        return flow

    def pause(self, flow: Flow) -> None:
        """Stop a flow's progress (models absent MPI progress)."""
        if self._alive[flow.slot] and not self._paused[flow.slot]:
            self._settle()
            self._paused[flow.slot] = True
            self._mark_dirty()

    def resume(self, flow: Flow) -> None:
        """Resume a paused flow."""
        if self._alive[flow.slot] and self._paused[flow.slot]:
            self._settle()
            self._paused[flow.slot] = False
            self._mark_dirty()

    def resource_stats(self) -> dict[ResourceKey, ResourceStats]:
        """Per-resource utilization accumulated so far.

        Busy time and byte counts are settled up to the current simulated
        instant before the snapshot is taken.
        """
        self._settle()
        return {
            key: ResourceStats(
                busy_seconds=float(self._res_busy[ri]),
                bytes_moved=float(self._res_bytes[ri]),
                max_concurrent_flows=int(self._res_hwm[ri]),
                flows_started=int(self._res_flows[ri]),
            )
            for key, ri in self._res_index.items()
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_slot_capacity(self, needed: int) -> None:
        cur = self._weight.size
        if needed <= cur:
            return
        new = max(needed, 2 * cur)
        for name in ("_weight", "_remaining", "_rate"):
            arr = getattr(self, name)
            grown = np.zeros(new)
            grown[:cur] = arr
            setattr(self, name, grown)
        for name in ("_alive", "_paused"):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=bool)
            grown[:cur] = arr
            setattr(self, name, grown)
        self._flows.extend([None] * (new - len(self._flows)))

    def _ensure_edge_capacity(self, needed: int) -> None:
        cur = self._e_flow.size
        if needed <= cur:
            return
        new = max(needed, 2 * cur)
        for name, dtype in (("_e_flow", np.int64), ("_e_res", np.int64), ("_e_mult", float)):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=dtype)
            grown[:cur] = arr
            setattr(self, name, grown)

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
        """Advance all flows to the current instant; complete finished ones."""
        n = self._n_slots
        dt = self._sim.now - self._last_update
        self._last_update = self._sim.now
        if n == 0:
            return
        if dt > 0:
            moving = self._alive[:n] & ~self._paused[:n]
            ne = self._n_edges
            e_flow = self._e_flow[:ne]
            live = moving[e_flow] & (self._rate[e_flow] > 0)
            if live.any():
                ef = e_flow[live]
                er = self._e_res[:ne][live]
                np.add.at(
                    self._res_bytes, er, self._rate[ef] * self._e_mult[:ne][live] * dt
                )
                busy = np.zeros(len(self._res_keys), dtype=bool)
                busy[er] = True
                self._res_busy[busy] += dt
            self._remaining[:n][moving] -= self._rate[:n][moving] * dt
        finished = np.flatnonzero(self._alive[:n] & (self._remaining[:n] <= _EPS_BYTES))
        if finished.size:
            self._alive[finished] = False
            self._rate[finished] = 0.0
            self._remaining[finished] = 0.0
            for slot in finished:
                flow = self._flows[slot]
                assert flow is not None
                flow.done.succeed(flow)

    def _recompute_rates(self) -> None:
        """Vectorised weighted max-min fair allocation (progressive filling)."""
        n = self._n_slots
        if n == 0:
            return
        self._rate[:n] = 0.0
        runnable = self._alive[:n] & ~self._paused[:n]
        if not runnable.any():
            return
        ne = self._n_edges
        e_flow = self._e_flow[:ne]
        live_edge = runnable[e_flow]
        e_flow = e_flow[live_edge]
        e_res = self._e_res[:ne][live_edge]
        e_mult = self._e_mult[:ne][live_edge]
        if e_flow.size == 0:
            return
        # contention high-water mark: concurrent runnable flows per resource
        conc = np.zeros(len(self._res_keys), dtype=np.int64)
        np.add.at(conc, e_res, 1)
        np.maximum(self._res_hwm, conc, out=self._res_hwm)
        weights = self._weight
        nres = len(self._res_keys)
        weight_on = np.zeros(nres)
        np.add.at(weight_on, e_res, weights[e_flow])
        cap = np.zeros(nres)
        for ri in np.flatnonzero(weight_on > 0):
            cap[ri] = max(0.0, float(self._cap_fns[ri](weight_on[ri])))
        consumed = np.zeros(nres)
        rate = np.full(n, -1.0)
        rate[~runnable] = 0.0
        for _round in range(nres + 1):
            unfrozen_edge = rate[e_flow] < 0
            if not unfrozen_edge.any():
                break
            denom = np.zeros(nres)
            np.add.at(
                denom,
                e_res[unfrozen_edge],
                weights[e_flow[unfrozen_edge]] * e_mult[unfrozen_edge],
            )
            contended = denom > 0
            share = np.full(nres, np.inf)
            share[contended] = (
                np.maximum(0.0, cap[contended] - consumed[contended]) / denom[contended]
            )
            s_min = share.min()
            if not np.isfinite(s_min):  # pragma: no cover - numerical guard
                break
            bottleneck = share <= s_min * (1.0 + 1e-12)
            freeze_edge = unfrozen_edge & bottleneck[e_res]
            if not freeze_edge.any():  # pragma: no cover - numerical guard
                break
            # a boolean flow mask, not np.unique + np.isin: this loop body
            # runs ~1 200 times per simulated sweep
            frozen = np.zeros(n, dtype=bool)
            frozen[e_flow[freeze_edge]] = True
            rate[frozen] = weights[:n][frozen] * s_min
            newly_frozen_edge = unfrozen_edge & frozen[e_flow]
            np.add.at(
                consumed,
                e_res[newly_frozen_edge],
                rate[e_flow[newly_frozen_edge]] * e_mult[newly_frozen_edge],
            )
        rate[rate < 0] = 0.0
        self._rate[:n] = rate

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        self._settle()
        self._recompute_rates()
        self._epoch += 1
        epoch = self._epoch
        n = self._n_slots
        moving = self._alive[:n] & ~self._paused[:n] & (self._rate[:n] > 0)
        if not moving.any():
            return
        dts = self._remaining[:n][moving] / self._rate[:n][moving]
        next_dt = float(dts.min())

        def on_completion() -> None:
            if epoch == self._epoch:
                self._reschedule()

        self._sim.schedule(next_dt, on_completion)
