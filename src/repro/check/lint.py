"""The static prong: linting communication plans before anything runs.

:func:`lint_comm_plan` checks a :class:`~repro.comm.plan.CommPlan`
(optionally against the :class:`~repro.core.halo.HaloPlan` it lowers)
for every invariant both replayers rely on, and reports violations as
``plan-lint`` :class:`~repro.check.findings.Finding` records carrying
the offending rank/phase/channel:

* **structure** — dense channel numbering (channel *i* is message *i*,
  which is also what makes the ``PLAN_TAG_BASE + channel`` tags
  collision-free), ranks in range, no self-sends, placement-consistent
  node annotations, correct per-node leaders;
* **phase topology** — gathers/scatters stay intra-node and touch the
  right leader, forwards run leader-to-leader across nodes, direct plans
  use only the direct phase;
* **script consistency** — every channel is sent exactly once by its
  source (initial send or relay duty) and received exactly once by its
  destination, relays only wait on channels the rank actually receives,
  packed-element counts match the payload-ready sends;
* **phase ordering** — the relay dependency graph (received channel →
  dependent send) is acyclic, so the gather → forward → scatter pipeline
  cannot stall on itself;
* **volume conservation & relay coverage** — a forward carries exactly
  its edge's deduplicated column set, contributor positions partition it
  exactly once (nothing dropped, nothing duplicated), gather/scatter
  sizes match the shares they carry;
* **halo coverage** (with *halo*) — replaying the plan lands every halo
  slot of every rank exactly once, and each direct message carries
  exactly the element count the halo plan promised.

The dynamic analyzer (:mod:`repro.check.checker`) answers "did this run
misbehave"; this linter answers "could any run of this plan misbehave" —
without sending a byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.check.findings import Finding
from repro.comm.plan import PHASES, PLAN_KINDS, CommPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.halo import HaloPlan

__all__ = ["lint_comm_plan"]


def lint_comm_plan(plan: CommPlan, halo: "HaloPlan | None" = None) -> list[Finding]:
    """Lint *plan* (see module docstring); returns all findings, not just the first."""
    findings: list[Finding] = []

    def add(message: str, *, ranks: tuple[int, ...] = (), channel: int | None = None,
            phase: str | None = None, **details: object) -> None:
        findings.append(Finding(
            kind="plan-lint", message=message, ranks=ranks,
            channel=channel, phase=phase, details=dict(details),
        ))

    nranks = plan.nranks
    node = plan.rank_node
    if len(node) != nranks:
        add(f"placement has {len(node)} rank_node entries for {nranks} scripts")
        return findings  # everything downstream indexes rank_node by rank
    if plan.kind not in PLAN_KINDS:
        add(f"unknown plan kind {plan.kind!r} (expected one of {PLAN_KINDS})")

    groups: dict[int, list[int]] = {}
    for rank, n in enumerate(node):
        groups.setdefault(n, []).append(rank)
    for n, ranks in sorted(groups.items()):
        expected = min(ranks)
        got = plan.leaders.get(n)
        if got != expected:
            add(
                f"node {n}: leader is {got}, expected min-rank {expected}",
                ranks=(expected,) if got is None else (got, expected),
            )

    n_ch = len(plan.messages)
    for i, m in enumerate(plan.messages):
        where = dict(channel=m.channel, phase=m.phase)
        if m.channel != i:
            add(f"message {i} carries channel {m.channel}: channel numbering "
                f"must be dense (it doubles as the mpilite tag offset)", **where)
        if not (0 <= m.src < nranks and 0 <= m.dst < nranks):
            add(f"channel {m.channel}: endpoint out of range "
                f"(src={m.src}, dst={m.dst}, nranks={nranks})", **where)
            continue
        where["ranks"] = (m.src, m.dst)
        if m.src == m.dst:
            add(f"channel {m.channel}: rank {m.src} sends to itself", **where)
        if m.n_elements <= 0:
            add(f"channel {m.channel}: carries {m.n_elements} elements "
                f"(every planned message must move payload)", **where)
        if m.src_node != node[m.src] or m.dst_node != node[m.dst]:
            add(f"channel {m.channel}: node annotation ({m.src_node}->{m.dst_node}) "
                f"contradicts the placement ({node[m.src]}->{node[m.dst]})", **where)
            continue
        if m.phase not in PHASES:
            add(f"channel {m.channel}: unknown phase {m.phase!r}", **where)
        elif plan.kind == "direct" and m.phase != "direct":
            add(f"channel {m.channel}: phase {m.phase!r} in a direct plan", **where)
        elif m.phase in ("direct", "gather", "scatter") and plan.kind == "node-aware":
            if m.src_node != m.dst_node:
                add(f"channel {m.channel}: {m.phase} message crosses nodes "
                    f"({m.src_node}->{m.dst_node}); only forwards may touch a NIC",
                    **where)
            elif m.phase == "gather" and m.dst != plan.leaders.get(m.dst_node):
                add(f"channel {m.channel}: gather targets rank {m.dst}, "
                    f"not node {m.dst_node}'s leader "
                    f"{plan.leaders.get(m.dst_node)}", **where)
            elif m.phase == "scatter" and m.src != plan.leaders.get(m.src_node):
                add(f"channel {m.channel}: scatter originates at rank {m.src}, "
                    f"not node {m.src_node}'s leader "
                    f"{plan.leaders.get(m.src_node)}", **where)
        elif m.phase == "forward":
            if m.src_node == m.dst_node:
                add(f"channel {m.channel}: forward stays on node {m.src_node}", **where)
            elif m.src != plan.leaders.get(m.src_node) or m.dst != plan.leaders.get(m.dst_node):
                add(f"channel {m.channel}: forward must run leader-to-leader "
                    f"({plan.leaders.get(m.src_node)}->{plan.leaders.get(m.dst_node)}), "
                    f"got {m.src}->{m.dst}", **where)

    # script consistency: exactly-once send/recv duty per channel
    sent: dict[int, int] = dict.fromkeys(range(n_ch), 0)
    recvd: dict[int, int] = dict.fromkeys(range(n_ch), 0)
    relay_deps: dict[int, set[int]] = {}  # recv channel -> dependent sends
    for idx, script in enumerate(plan.scripts):
        rank = script.rank
        if rank != idx:
            add(f"script {idx} claims rank {rank}", ranks=(idx,))
            continue

        def own_send(ch: int, duty: str) -> None:
            if not 0 <= ch < n_ch:
                add(f"rank {rank}: {duty} references unknown channel {ch}",
                    ranks=(rank,), channel=ch)
                return
            sent[ch] += 1
            m = plan.messages[ch]
            if m.src != rank:
                add(f"rank {rank}: {duty} sends channel {ch}, but that message "
                    f"originates at rank {m.src}", ranks=(rank, m.src),
                    channel=ch, phase=m.phase)

        for ch in script.send_channels:
            own_send(ch, "send_channels")
        for ch in script.recv_channels:
            if not 0 <= ch < n_ch:
                add(f"rank {rank}: recv_channels references unknown channel {ch}",
                    ranks=(rank,), channel=ch)
                continue
            recvd[ch] += 1
            m = plan.messages[ch]
            if m.dst != rank:
                add(f"rank {rank}: recv_channels lists channel {ch}, but that "
                    f"message targets rank {m.dst}", ranks=(rank, m.dst),
                    channel=ch, phase=m.phase)
        for relay in script.relays:
            for ch in relay.send_channels:
                own_send(ch, "relay")
            for ch in relay.recv_channels:
                if ch not in script.recv_channels:
                    add(f"rank {rank}: relay waits on channel {ch} the rank "
                        f"never receives", ranks=(rank,), channel=ch)
                relay_deps.setdefault(ch, set()).update(relay.send_channels)
        packed = sum(
            plan.messages[ch].n_elements
            for ch in script.send_channels
            if 0 <= ch < n_ch
        )
        if packed != script.n_packed_elements:
            add(f"rank {rank}: n_packed_elements={script.n_packed_elements} but "
                f"payload-ready sends pack {packed} elements", ranks=(rank,))

    for ch, count in sent.items():
        if count != 1:
            m = plan.messages[ch]
            add(f"channel {ch}: sent {count} times by rank {m.src} "
                f"(must be exactly once)", ranks=(m.src,),
                channel=ch, phase=m.phase)
    for ch, count in recvd.items():
        if count != 1:
            m = plan.messages[ch]
            add(f"channel {ch}: received {count} times by rank {m.dst} "
                f"(must be exactly once)", ranks=(m.dst,),
                channel=ch, phase=m.phase)

    _check_relay_ordering(plan, relay_deps, add)
    _check_edges(plan, add)
    if halo is not None:
        _check_halo_coverage(plan, halo, add)
    return findings


def _check_relay_ordering(plan: CommPlan, deps: dict[int, set[int]], add) -> None:
    """The relay dependency graph must be acyclic (phase-ordering validity)."""
    state: dict[int, int] = {}  # 0 visiting, 1 done

    def visit(ch: int, path: list[int]) -> list[int] | None:
        if state.get(ch) == 1:
            return None
        if state.get(ch) == 0:
            return path[path.index(ch):]
        state[ch] = 0
        for nxt in sorted(deps.get(ch, ())):
            cycle = visit(nxt, path + [nxt])
            if cycle is not None:
                return cycle
        state[ch] = 1
        return None

    for ch in sorted(deps):
        cycle = visit(ch, [ch])
        if cycle is not None:
            phases = [
                plan.messages[c].phase if 0 <= c < len(plan.messages) else "?"
                for c in cycle
            ]
            add(
                "relay dependency cycle: channel "
                + " -> channel ".join(str(c) for c in cycle + [cycle[0]])
                + f" (phases {phases}); the pipeline would wait on itself",
                channel=cycle[0], cycle=cycle,
            )
            return  # one cycle names the problem; deeper ones follow from it


def _check_edges(plan: CommPlan, add) -> None:
    """Node-edge bookkeeping: volume conservation and exactly-once relaying."""
    n_ch = len(plan.messages)
    for (src_node, dst_node), edge in sorted(plan.edges.items()):
        ncols = int(edge.columns.size)
        tag = f"edge {src_node}->{dst_node}"
        if src_node == dst_node:
            add(f"{tag}: aggregation edge on a single node")
            continue
        fwd = edge.forward_channel
        if not 0 <= fwd < n_ch:
            add(f"{tag}: forward channel {fwd} does not exist", channel=fwd,
                phase="forward")
        else:
            m = plan.messages[fwd]
            if m.n_elements != ncols:
                add(f"{tag}: forward channel {fwd} carries {m.n_elements} "
                    f"elements for {ncols} aggregated columns "
                    f"(volume not conserved)", ranks=(m.src, m.dst),
                    channel=fwd, phase="forward")
        # contributor positions must partition the aggregate exactly once
        cover = np.zeros(ncols, dtype=np.int64)
        for p, pos in sorted(edge.contributors.items()):
            pos = np.asarray(pos)
            if pos.size and (pos.min() < 0 or pos.max() >= ncols):
                add(f"{tag}: contributor rank {p} positions out of range "
                    f"0..{ncols - 1}", ranks=(p,), phase="gather")
                continue
            # np.add.at: plain fancy-index += collapses duplicate positions,
            # which is exactly the bug this check exists to catch
            np.add.at(cover, pos, 1)
        bad = np.flatnonzero(cover != 1)
        if bad.size:
            add(f"{tag}: {bad.size} aggregated column(s) gathered "
                f"{int(cover[bad[0]])}x instead of exactly once "
                f"(first: position {int(bad[0])}, column "
                f"{int(edge.columns[bad[0]])})", phase="gather",
                positions=[int(b) for b in bad[:8]])
        leader = plan.leaders.get(src_node)
        for p, ch in sorted(edge.gather_channels.items()):
            if p == leader:
                add(f"{tag}: leader rank {p} gathers to itself", ranks=(p,),
                    channel=ch, phase="gather")
            if not 0 <= ch < n_ch:
                add(f"{tag}: gather channel {ch} (rank {p}) does not exist",
                    ranks=(p,), channel=ch, phase="gather")
                continue
            m = plan.messages[ch]
            share = edge.contributors.get(p)
            size = 0 if share is None else int(np.asarray(share).size)
            if m.n_elements != size:
                add(f"{tag}: gather channel {ch} carries {m.n_elements} "
                    f"elements but rank {p} contributes {size}",
                    ranks=(p,), channel=ch, phase="gather")
        for q, entry in sorted(edge.consumers.items()):
            pos = np.asarray(entry[0])
            if pos.size and (pos.min() < 0 or pos.max() >= ncols):
                add(f"{tag}: consumer rank {q} positions out of range "
                    f"0..{ncols - 1}", ranks=(q,), phase="scatter")
        for q, ch in sorted(edge.scatter_channels.items()):
            if not 0 <= ch < n_ch:
                add(f"{tag}: scatter channel {ch} (rank {q}) does not exist",
                    ranks=(q,), channel=ch, phase="scatter")
                continue
            m = plan.messages[ch]
            entry = edge.consumers.get(q)
            if entry is None:
                add(f"{tag}: scatter channel {ch} targets rank {q}, which "
                    f"consumes nothing from this edge", ranks=(q,),
                    channel=ch, phase="scatter")
            elif m.n_elements != int(np.asarray(entry[0]).size):
                add(f"{tag}: scatter channel {ch} carries {m.n_elements} "
                    f"elements but rank {q} consumes "
                    f"{int(np.asarray(entry[0]).size)}", ranks=(q,),
                    channel=ch, phase="scatter")


def _check_halo_coverage(plan: CommPlan, halo: "HaloPlan", add) -> None:
    """Replaying the plan must land every halo slot of every rank exactly once."""
    node = plan.rank_node
    direct = {
        (m.src, m.dst): m for m in plan.messages
        if m.phase == "direct" and 0 <= m.src < plan.nranks and 0 <= m.dst < plan.nranks
    }
    for rh in halo.ranks:
        covered = np.zeros(rh.n_halo, dtype=np.int64)
        pos = 0
        for src, count in rh.recv_from:
            if plan.kind == "direct" or node[src] == node[rh.rank]:
                m = direct.get((src, rh.rank))
                if m is None:
                    add(f"rank {rh.rank}: no direct channel from rank {src} "
                        f"for its {count} halo element(s)",
                        ranks=(rh.rank, src), phase="direct")
                else:
                    if m.n_elements != count:
                        add(f"rank {rh.rank}: direct channel {m.channel} from "
                            f"rank {src} carries {m.n_elements} elements, halo "
                            f"plan promises {count}", ranks=(rh.rank, src),
                            channel=m.channel, phase="direct")
                    covered[pos : pos + min(count, m.n_elements)] += 1
            pos += count
        for (_src_node, dst_node), edge in sorted(plan.edges.items()):
            if dst_node != node[rh.rank]:
                continue
            entry = edge.consumers.get(rh.rank)
            if entry is None:
                continue
            halo_idx = np.asarray(entry[1])
            if halo_idx.size and (halo_idx.min() < 0 or halo_idx.max() >= rh.n_halo):
                add(f"rank {rh.rank}: consumer halo indices out of range "
                    f"0..{rh.n_halo - 1}", ranks=(rh.rank,), phase="scatter")
                continue
            np.add.at(covered, halo_idx, 1)
        bad = np.flatnonzero(covered != 1)
        if bad.size:
            add(f"rank {rh.rank}: {bad.size} halo slot(s) delivered "
                f"{int(covered[bad[0]])}x instead of exactly once "
                f"(first: slot {int(bad[0])})", ranks=(rh.rank,),
                slots=[int(b) for b in bad[:8]])
