"""Communication plans: how the halo exchange actually hits the wire.

A :class:`~repro.core.halo.HaloPlan` says *what* every rank needs; a
:class:`CommPlan` says *which messages carry it*.  Two strategies:

* **direct** — the paper's exchange, one point-to-point message per
  communicating rank pair.  With several ranks per node this injects
  duplicate RHS elements into the network whenever two ranks on the same
  destination node need the same element.
* **node-aware** (Bienz, Gropp & Olson, see PAPERS.md) — per
  (source node, destination node) pair, deduplicate the RHS elements
  needed by *any* rank on the destination node, gather them intra-node
  to a per-node **leader** rank, forward **one** aggregated inter-node
  message per node pair, and scatter intra-node on arrival.  Messages
  between ranks on the same node stay direct (they never touch a NIC).

A plan is a flat list of :class:`PlanMessage` (indexed by *channel*)
plus one :class:`RankScript` per rank describing which channels the rank
sends at sweep start, which it receives, and which it *relays* (a leader
waiting for gathers before forwarding, or for a forward before
scattering).  Both the simulator (:mod:`repro.comm.sim`) and the
executable mpilite path (:mod:`repro.comm.exec`) replay the same plan,
so predicted and actual message patterns cannot drift apart.

The builders only read public :class:`HaloPlan` attributes, keeping this
package import-light (it is pulled in lazily by ``repro.model``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.util import check_in

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.halo import HaloPlan

__all__ = [
    "PLAN_KINDS",
    "PHASES",
    "PlanValidationError",
    "PlanMessage",
    "Relay",
    "RankScript",
    "NodeEdge",
    "CommPlan",
    "build_comm_plan",
    "cached_comm_plan",
]

PLAN_KINDS = ("direct", "node-aware")


class PlanValidationError(AssertionError):
    """An invalid communication plan, carrying the linter's findings.

    Subclasses ``AssertionError`` because :meth:`CommPlan.validate`
    historically asserted; callers catching that still work, and new
    callers get the full finding list with rank/phase/channel provenance.
    """

    def __init__(self, message: str, findings: list | None = None) -> None:
        super().__init__(message)
        self.findings = findings or []

#: Message roles, in pipeline order.  Direct plans use only ``direct``.
PHASES = ("direct", "gather", "forward", "scatter")

#: Bytes per RHS element on the wire (float64).
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class PlanMessage:
    """One point-to-point message of the plan (element counts are per RHS)."""

    channel: int
    src: int
    dst: int
    src_node: int
    dst_node: int
    n_elements: int
    phase: str

    @property
    def nbytes(self) -> int:
        """Payload bytes for a single right-hand side."""
        return ELEMENT_BYTES * self.n_elements

    @property
    def internode(self) -> bool:
        """Whether the message crosses a node boundary (touches a NIC)."""
        return self.src_node != self.dst_node


@dataclass(frozen=True)
class Relay:
    """A forwarding duty: once all *recv_channels* arrived, send *send_channels*."""

    recv_channels: tuple[int, ...]
    send_channels: tuple[int, ...]


@dataclass
class RankScript:
    """One rank's part in replaying the plan, per sweep.

    ``send_channels`` are payload-ready at sweep start (direct messages,
    gather contributions, and forwards with no gathers to wait for);
    ``recv_channels`` is every inbound message; ``relays`` are the
    leader duties chaining recvs to dependent sends.
    """

    rank: int
    send_channels: list[int] = field(default_factory=list)
    recv_channels: list[int] = field(default_factory=list)
    relays: list[Relay] = field(default_factory=list)
    #: RHS elements this rank packs into send buffers at sweep start
    n_packed_elements: int = 0


@dataclass
class NodeEdge:
    """Aggregated traffic of one (source node, destination node) pair.

    ``columns`` is the deduplicated ascending set of global RHS indices
    any rank on the destination node needs from the source node.
    ``contributors`` maps each owning rank to its positions in
    ``columns``; ``consumers`` maps each needing rank to
    ``(positions in columns, positions in its halo buffer)``.
    """

    src_node: int
    dst_node: int
    columns: np.ndarray
    contributors: dict[int, np.ndarray]
    consumers: dict[int, tuple[np.ndarray, np.ndarray]]
    gather_channels: dict[int, int] = field(default_factory=dict)
    forward_channel: int = -1
    scatter_channels: dict[int, int] = field(default_factory=dict)


@dataclass
class CommPlan:
    """A fully lowered communication plan for one halo plan on one placement."""

    kind: str
    rank_node: tuple[int, ...]
    leaders: dict[int, int]
    messages: list[PlanMessage]
    scripts: list[RankScript]
    #: node-aware aggregation bookkeeping, keyed ``(src_node, dst_node)``;
    #: empty for direct plans
    edges: dict[tuple[int, int], NodeEdge] = field(default_factory=dict)

    @property
    def nranks(self) -> int:
        """Number of ranks the plan covers."""
        return len(self.scripts)

    @property
    def n_nodes(self) -> int:
        """Number of distinct nodes in the placement."""
        return len(set(self.rank_node))

    @property
    def n_channels(self) -> int:
        """Number of distinct messages per sweep."""
        return len(self.messages)

    def total_messages(self) -> int:
        """All messages per sweep (intra- and inter-node)."""
        return len(self.messages)

    def internode_messages(self) -> int:
        """Messages crossing node boundaries per sweep."""
        return sum(1 for m in self.messages if m.internode)

    def intranode_messages(self) -> int:
        """Messages staying on one node per sweep."""
        return sum(1 for m in self.messages if not m.internode)

    def injected_bytes(self) -> int:
        """Bytes injected into the interconnect (inter-node only), per RHS."""
        return sum(m.nbytes for m in self.messages if m.internode)

    def intranode_bytes(self) -> int:
        """Bytes moved over shared memory (intra-node messages), per RHS."""
        return sum(m.nbytes for m in self.messages if not m.internode)

    def nic_bytes(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per-node (injected, extracted) inter-node bytes, per RHS."""
        out: dict[int, int] = {}
        inn: dict[int, int] = {}
        for m in self.messages:
            if m.internode:
                out[m.src_node] = out.get(m.src_node, 0) + m.nbytes
                inn[m.dst_node] = inn.get(m.dst_node, 0) + m.nbytes
        return out, inn

    def validate(self, halo: "HaloPlan") -> None:
        """Run the full plan linter (:mod:`repro.check.lint`) against *halo*.

        Raises :class:`PlanValidationError` (an ``AssertionError``
        subclass, for backward compatibility) listing *every* violated
        invariant — halo coverage, volume conservation, relay
        exactly-once duties, phase topology — each naming the offending
        rank/phase/channel.  Cheap enough to run on construction in
        tests.
        """
        from repro.check.lint import lint_comm_plan  # lazy: avoids a cycle

        findings = lint_comm_plan(self, halo)
        if findings:
            lines = [f"invalid {self.kind} comm plan ({len(findings)} finding(s)):"]
            lines.extend("  - " + f.describe() for f in findings)
            raise PlanValidationError("\n".join(lines), findings)


def _node_groups(rank_node: Sequence[int]) -> tuple[dict[int, list[int]], dict[int, int]]:
    groups: dict[int, list[int]] = {}
    for rank, node in enumerate(rank_node):
        groups.setdefault(int(node), []).append(rank)
    leaders = {node: min(ranks) for node, ranks in groups.items()}
    return groups, leaders


def build_direct_plan(halo: "HaloPlan", rank_node: Sequence[int]) -> CommPlan:
    """Lower *halo* to one message per communicating rank pair."""
    node = tuple(int(n) for n in rank_node)
    if len(node) != halo.nranks:
        raise ValueError(f"rank_node has {len(node)} entries for {halo.nranks} ranks")
    _groups, leaders = _node_groups(node)
    messages: list[PlanMessage] = []
    scripts = [RankScript(rank=r) for r in range(halo.nranks)]
    for rh in halo.ranks:
        for dst, count in rh.send_to:
            ch = len(messages)
            messages.append(
                PlanMessage(
                    channel=ch, src=rh.rank, dst=dst,
                    src_node=node[rh.rank], dst_node=node[dst],
                    n_elements=count, phase="direct",
                )
            )
            scripts[rh.rank].send_channels.append(ch)
            scripts[dst].recv_channels.append(ch)
            scripts[rh.rank].n_packed_elements += count
    return CommPlan(
        kind="direct", rank_node=node, leaders=leaders,
        messages=messages, scripts=scripts,
    )


def build_node_aware_plan(halo: "HaloPlan", rank_node: Sequence[int]) -> CommPlan:
    """Lower *halo* to the 3-step gather/forward/scatter plan.

    Intra-node rank pairs keep their direct message (shared-memory
    transport is cheap and aggregation would only add hops); every
    inter-node (source node, destination node) pair sends exactly one
    aggregated forward message between the two node leaders.
    """
    node = tuple(int(n) for n in rank_node)
    if len(node) != halo.nranks:
        raise ValueError(f"rank_node has {len(node)} entries for {halo.nranks} ranks")
    groups, leaders = _node_groups(node)
    node_arr = np.asarray(node, dtype=np.int64)
    part = halo.partition

    # per rank: owner node of every halo-buffer slot
    owner_node: list[np.ndarray] = []
    for rh in halo.ranks:
        cols = rh.halo_columns
        if cols is None:
            raise ValueError("node-aware planning needs halo_columns on every rank")
        owners = part.owner_of(cols) if cols.size else np.zeros(0, dtype=np.int64)
        owner_node.append(node_arr[owners])

    messages: list[PlanMessage] = []
    scripts = [RankScript(rank=r) for r in range(halo.nranks)]

    def add_message(src: int, dst: int, n_elements: int, phase: str) -> int:
        ch = len(messages)
        messages.append(
            PlanMessage(
                channel=ch, src=src, dst=dst,
                src_node=node[src], dst_node=node[dst],
                n_elements=n_elements, phase=phase,
            )
        )
        scripts[dst].recv_channels.append(ch)
        return ch

    # intra-node pairs: unchanged direct messages
    for rh in halo.ranks:
        for dst, count in rh.send_to:
            if node[dst] == node[rh.rank]:
                ch = add_message(rh.rank, dst, count, "direct")
                scripts[rh.rank].send_channels.append(ch)
                scripts[rh.rank].n_packed_elements += count

    # inter-node: one aggregated edge per (source node, destination node)
    edges: dict[tuple[int, int], NodeEdge] = {}
    for dst_node in sorted(groups):
        consumers_by_src: dict[int, list[int]] = {}
        for q in groups[dst_node]:
            for src_node in np.unique(owner_node[q]):
                sn = int(src_node)
                if sn != dst_node:
                    consumers_by_src.setdefault(sn, []).append(q)
        for src_node in sorted(consumers_by_src):
            consumers = consumers_by_src[src_node]
            columns = np.unique(
                np.concatenate(
                    [
                        halo.ranks[q].halo_columns[owner_node[q] == src_node]
                        for q in consumers
                    ]
                )
            )
            owners = part.owner_of(columns)
            edge = NodeEdge(
                src_node=src_node, dst_node=dst_node, columns=columns,
                contributors={}, consumers={},
            )
            for p in groups[src_node]:
                pos = np.flatnonzero(owners == p)
                if pos.size:
                    edge.contributors[p] = pos
            for q in consumers:
                halo_idx = np.flatnonzero(owner_node[q] == src_node)
                pos = np.searchsorted(columns, halo.ranks[q].halo_columns[halo_idx])
                edge.consumers[q] = (pos, halo_idx)
            src_leader = leaders[src_node]
            dst_leader = leaders[dst_node]
            # gather: each non-leader contributor sends its share to the leader
            for p, pos in edge.contributors.items():
                if p != src_leader:
                    ch = add_message(p, src_leader, int(pos.size), "gather")
                    edge.gather_channels[p] = ch
                    scripts[p].send_channels.append(ch)
                    scripts[p].n_packed_elements += int(pos.size)
            # forward: one aggregated message between the node leaders
            fwd = add_message(src_leader, dst_leader, int(columns.size), "forward")
            edge.forward_channel = fwd
            # scatter: the destination leader fans the aggregate out
            for q, (pos, _halo_idx) in edge.consumers.items():
                if q != dst_leader:
                    ch = add_message(dst_leader, q, int(pos.size), "scatter")
                    edge.scatter_channels[q] = ch
            if edge.gather_channels:
                scripts[src_leader].relays.append(
                    Relay(
                        recv_channels=tuple(sorted(edge.gather_channels.values())),
                        send_channels=(fwd,),
                    )
                )
            else:
                # the leader owns every needed element — forward is
                # payload-ready at sweep start
                scripts[src_leader].send_channels.append(fwd)
                scripts[src_leader].n_packed_elements += int(columns.size)
            if edge.scatter_channels:
                scripts[dst_leader].relays.append(
                    Relay(
                        recv_channels=(fwd,),
                        send_channels=tuple(sorted(edge.scatter_channels.values())),
                    )
                )
            edges[(src_node, dst_node)] = edge

    return CommPlan(
        kind="node-aware", rank_node=node, leaders=leaders,
        messages=messages, scripts=scripts, edges=edges,
    )


def build_comm_plan(
    halo: "HaloPlan", rank_node: Sequence[int], kind: str = "direct"
) -> CommPlan:
    """Build a communication plan of the requested *kind*."""
    check_in(kind, PLAN_KINDS, "kind")
    if kind == "direct":
        return build_direct_plan(halo, rank_node)
    return build_node_aware_plan(halo, rank_node)


# ----------------------------------------------------------------------
# plan cache: like cached_halo_plan, keyed on the halo plan's identity —
# solvers/benchmarks replay the same plan thousands of times
# ----------------------------------------------------------------------
_COMM_CACHE: dict[tuple[int, tuple[int, ...], str], tuple[weakref.ref, CommPlan]] = {}
_COMM_CACHE_MAX = 32
#: Serialises lookup, eviction and insertion, as ``core.halo._PLAN_LOCK``
#: does; the build stays outside.
_COMM_LOCK = threading.Lock()


def cached_comm_plan(
    halo: "HaloPlan", rank_node: Sequence[int], kind: str = "direct"
) -> CommPlan:
    """Build (or reuse) the communication plan for *halo* on a placement."""
    key = (id(halo), tuple(int(n) for n in rank_node), kind)
    with _COMM_LOCK:
        hit = _COMM_CACHE.get(key)
    if hit is not None and hit[0]() is halo:
        return hit[1]
    plan = build_comm_plan(halo, rank_node, kind)
    with _COMM_LOCK:
        dead = [k for k, (ref, _p) in _COMM_CACHE.items() if ref() is None]
        for k in dead:
            del _COMM_CACHE[k]
        if key not in _COMM_CACHE:
            while len(_COMM_CACHE) >= _COMM_CACHE_MAX:
                del _COMM_CACHE[next(iter(_COMM_CACHE))]
        _COMM_CACHE[key] = (weakref.ref(halo), plan)
    return plan
