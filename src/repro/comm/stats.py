"""Predicted message/volume/latency accounting of communication plans.

:func:`plan_stats` reduces a :class:`~repro.comm.plan.CommPlan` to the
numbers that decide between strategies — message counts, injected
inter-node bytes, the worst per-NIC load, and the **duplicate factor**
(injected bytes over the deduplicated lower bound: how many copies of
the same RHS element the plan pushes through the NICs).  A direct plan
with several ranks per node has a duplicate factor > 1 exactly when two
ranks on one destination node need the same element; a node-aware plan
is 1 by construction.

:func:`predicted_exchange_seconds` is a deliberately coarse alpha-beta
model (per-node message latency + NIC serialisation + intra-node hops)
— good for ranking plans in a comparison table, not for replacing the
simulator.  These helpers are re-exported through ``repro.model``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.plan import ELEMENT_BYTES, CommPlan
from repro.util import Table

__all__ = [
    "PlanStats",
    "PlanComparison",
    "plan_stats",
    "compare_plans",
    "predicted_exchange_seconds",
]


@dataclass(frozen=True)
class PlanStats:
    """Per-sweep accounting of one communication plan (single RHS)."""

    kind: str
    n_ranks: int
    n_nodes: int
    messages: int
    internode_messages: int
    intranode_messages: int
    internode_bytes: int
    intranode_bytes: int
    max_nic_out_bytes: int
    max_nic_in_bytes: int
    #: deduplicated inter-node payload — the lower bound any plan can reach
    unique_internode_bytes: int

    @property
    def duplicate_factor(self) -> float:
        """Injected inter-node bytes over the deduplicated lower bound."""
        if self.unique_internode_bytes == 0:
            return 1.0
        return self.internode_bytes / self.unique_internode_bytes

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.kind:>10}: {self.internode_messages:5d} internode msgs "
            f"({self.messages} total) | {self.internode_bytes / 1e6:8.3f} MB injected "
            f"| dup x{self.duplicate_factor:.2f} "
            f"| worst NIC {self.max_nic_out_bytes / 1e6:.3f} MB"
        )


def _unique_internode_bytes(plan: CommPlan) -> int:
    """Deduplicated inter-node payload, identical for every plan kind.

    For a node-aware plan the edge columns *are* the dedup sets.  For a
    direct plan the same bound holds but no edges exist, so fall back to
    summing unique elements per (source node, destination node) pair
    from the messages — which for direct plans requires the halo; the
    callers always have the node-aware twin at hand, so this helper only
    needs the edge-based path.
    """
    return ELEMENT_BYTES * sum(int(e.columns.size) for e in plan.edges.values())


def plan_stats(plan: CommPlan, *, unique_internode_bytes: int | None = None) -> PlanStats:
    """Reduce *plan* to its accounting numbers.

    ``unique_internode_bytes`` (the dedup lower bound) is derived from
    the plan's own edges when present (node-aware); for a direct plan
    pass the bound computed from its node-aware twin, or leave ``None``
    to report the plan's own injected bytes as the bound (duplicate
    factor 1.0).
    """
    nic_out, nic_in = plan.nic_bytes()
    unique = (
        (_unique_internode_bytes(plan) if plan.edges else plan.injected_bytes())
        if unique_internode_bytes is None
        else unique_internode_bytes
    )
    return PlanStats(
        kind=plan.kind,
        n_ranks=plan.nranks,
        n_nodes=plan.n_nodes,
        messages=plan.total_messages(),
        internode_messages=plan.internode_messages(),
        intranode_messages=plan.intranode_messages(),
        internode_bytes=plan.injected_bytes(),
        intranode_bytes=plan.intranode_bytes(),
        max_nic_out_bytes=max(nic_out.values(), default=0),
        max_nic_in_bytes=max(nic_in.values(), default=0),
        unique_internode_bytes=unique,
    )


#: Rates of :func:`predicted_exchange_seconds`, matching the Westmere/QDR
#: cluster presets: inter-node latency (s) and NIC bandwidth (B/s), then
#: the same for an intra-node hop.
_LATENCY = 1.5e-6
_BANDWIDTH = 3.2e9
_INTRA_LATENCY = 0.6e-6
_INTRA_BANDWIDTH = 5.0e9


def predicted_exchange_seconds(stats: PlanStats) -> float:
    """Alpha-beta estimate of one halo exchange under *stats*.

    Per node: its share of inter-node message latencies, the worst NIC's
    serialisation time, plus its share of the intra-node gather/scatter
    hops, at the module's rates.
    """
    nodes = max(1, stats.n_nodes)
    inter = stats.internode_messages / nodes * _LATENCY + stats.max_nic_out_bytes / _BANDWIDTH
    intra = (
        stats.intranode_messages / nodes * _INTRA_LATENCY
        + stats.intranode_bytes / nodes / _INTRA_BANDWIDTH
    )
    return inter + intra


@dataclass(frozen=True)
class PlanComparison:
    """Direct vs node-aware accounting for one matrix/partition/placement."""

    direct: PlanStats
    node_aware: PlanStats

    @property
    def predicted_speedup(self) -> float:
        """Exchange-time ratio under the alpha-beta model (> 1 favours node-aware)."""
        na = predicted_exchange_seconds(self.node_aware)
        if na == 0:
            return 1.0
        return predicted_exchange_seconds(self.direct) / na

    def render(self, title: str = "communication plan comparison") -> str:
        """Side-by-side table of the two plans."""
        t = Table(
            ["quantity", "direct", "node-aware", "ratio"],
            title=title, float_fmt=".3f",
        )
        d, n = self.direct, self.node_aware
        rows = [
            ("messages/sweep", d.messages, n.messages),
            ("internode messages", d.internode_messages, n.internode_messages),
            ("intranode messages", d.intranode_messages, n.intranode_messages),
            ("injected MB", d.internode_bytes / 1e6, n.internode_bytes / 1e6),
            ("intranode MB", d.intranode_bytes / 1e6, n.intranode_bytes / 1e6),
            ("worst NIC out MB", d.max_nic_out_bytes / 1e6, n.max_nic_out_bytes / 1e6),
            ("duplicate factor", d.duplicate_factor, n.duplicate_factor),
            (
                "predicted exchange us",
                predicted_exchange_seconds(d) * 1e6,
                predicted_exchange_seconds(n) * 1e6,
            ),
        ]
        for name, dv, nv in rows:
            ratio = nv / dv if dv else 1.0
            t.add_row([name, dv, nv, ratio])
        return t.render()


def compare_plans(direct: CommPlan, node_aware: CommPlan) -> PlanComparison:
    """Stats of both plans with a shared dedup lower bound."""
    if direct.kind != "direct" or node_aware.kind != "node-aware":
        raise ValueError(
            f"expected a (direct, node-aware) pair, got "
            f"({direct.kind!r}, {node_aware.kind!r})"
        )
    unique = _unique_internode_bytes(node_aware)
    return PlanComparison(
        direct=plan_stats(direct, unique_internode_bytes=unique),
        node_aware=plan_stats(node_aware, unique_internode_bytes=unique),
    )
