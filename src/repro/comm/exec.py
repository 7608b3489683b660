"""Executing a halo exchange on real data (the mpilite path).

:class:`RankExchange` compiles one rank's duties into flat numpy index
arrays, so the per-sweep work is pure gather/copy into buffers that were
allocated once (:meth:`RankExchange.allocate`, one set per operand
width the engine has swept):

* **packs** — everything this rank owns and somebody needs: one send
  buffer per initial message (intra-node direct segments, gather
  contributions, aggregates the leader owns outright) plus a leader's
  own share of each forward aggregate it assembles;
* **forward duties** (source-node leader) — wait for the co-located
  gathers, complete the deduplicated aggregate, send it to the
  destination leader;
* **scatter duties** (destination-node leader) — wait for the forward,
  fan the per-rank subsets out, keep its own share;
* **landings** — direct and scatter segments landing in the halo buffer
  at explicit positions.

The direct exchange is the case with no relay duties: compiled from the
:class:`~repro.core.halo.RankHalo` lists alone (``plan=None`` and a
``direct`` plan are the same tables), every peer is an initial send and
every source a contiguous landing.  A ``node-aware`` plan adds the
gather → forward → scatter relays; nothing else differs.

All sends are buffered (mpilite's router copies on ``put``), so the
buffers are reusable at once and the relay chain cannot deadlock
regardless of the order ranks reach :meth:`RankExchange.finish`.  Every
index array works on 1-D vectors and ``(n, k)`` blocks alike (axis-0
indexing), and since the exchange only ever *copies* float64 payloads,
results are bit-identical across plans by construction.  Every received
message is checked against the shape its plan entry promises before it
is copied anywhere.

In sweep-IR terms (:mod:`repro.program`) ``POST_RECVS`` is
:meth:`~RankExchange.post_receives`, ``PACK`` :meth:`~RankExchange.pack`,
``POST_SENDS`` :meth:`~RankExchange.send` and ``WAITALL``
:meth:`~RankExchange.finish`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.plan import CommPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.halo import RankHalo
    from repro.mpilite.comm import Comm, Request

__all__ = ["PLAN_TAG_BASE", "RankExchange"]

#: mpilite tag of channel 0; each plan channel gets its own tag (a direct
#: exchange has one message per rank pair and rides channel 0), so the
#: per-(src, dst, tag) FIFO keeps successive sweeps ordered.
PLAN_TAG_BASE = 64


@dataclass(frozen=True)
class _Inbound:
    """One expected message: its request's position, sender and row count."""

    req: int
    src: int
    rows: int

    def wait(self, reqs: "list[Request]", cols: tuple[int, ...]) -> np.ndarray:
        data = reqs[self.req].wait()
        expected = (self.rows, *cols)
        if data.shape != expected:
            raise ValueError(
                f"halo segment from {self.src} has shape {data.shape}, "
                f"expected {expected}"
            )
        return data


#: One message this rank sends: (buffer key, destination rank, tag).
_Outbound = tuple[int, int, int]


def _run(pos: np.ndarray) -> slice:
    """*pos* as a slice: ranks own contiguous column ranges, so one rank's
    share of a sorted aggregate is a single run."""
    lo, hi = int(pos[0]), int(pos[-1]) + 1
    if hi - lo != pos.size:
        raise ValueError("a rank's share of a node aggregate is not contiguous")
    return slice(lo, hi)


class RankExchange:
    """One rank's compiled halo exchange (see module docstring).

    *plan* is ``None`` or a ``direct`` plan (no relay duties) or a
    ``node-aware`` plan.  Send buffers are keyed by destination rank
    under the former, by plan channel under the latter.
    """

    def __init__(self, plan: CommPlan | None, halo: "RankHalo") -> None:
        self._recv_posts: list[tuple[int, int]] = []  # (source rank, tag)
        self._buffers: list[tuple[int, int]] = []  # (key, rows)
        # (key, local indices): a whole buffer gathered from the owned slice
        self._packs: list[tuple[int, np.ndarray]] = []
        # (key, aggregate rows, local indices): a leader's share of an aggregate
        self._own_shares: list[tuple[int, slice, np.ndarray]] = []
        self._sends: list[_Outbound] = []
        # (aggregate, ((gather, aggregate rows), ...)): complete it, forward it
        self._forwards: list[tuple[_Outbound, tuple]] = []
        # (aggregate, ((message, aggregate rows), ...), own (aggregate rows,
        # halo indices) or None): fan the forwarded aggregate out
        self._scatters: list[tuple[_Inbound, tuple, tuple | None]] = []
        self._landings: list[tuple[_Inbound, slice | np.ndarray]] = []
        if plan is None or plan.kind == "direct":
            self._compile_direct(halo)
        else:
            self._compile_node_aware(plan, halo)

    def _initial_send(self, out: _Outbound, idx: np.ndarray) -> None:
        key = out[0]
        self._buffers.append((key, int(idx.size)))
        self._packs.append((key, idx))
        self._sends.append(out)

    def _compile_direct(self, halo: "RankHalo") -> None:
        # halo_columns is globally sorted and each source owns a
        # contiguous ascending range, so segments land in rank order
        pos = 0
        for src, count in halo.recv_from:
            inbound = _Inbound(len(self._recv_posts), src, count)
            self._recv_posts.append((src, PLAN_TAG_BASE))
            self._landings.append((inbound, slice(pos, pos + count)))
            pos += count
        for dst, idx in halo.send_indices.items():
            self._initial_send((dst, dst, PLAN_TAG_BASE), idx)

    def _compile_node_aware(self, plan: CommPlan, halo: "RankHalo") -> None:
        rank = halo.rank
        my_node = plan.rank_node[rank]
        row_lo = halo.row_lo
        direct_channel = {
            (m.src, m.dst): m.channel for m in plan.messages if m.phase == "direct"
        }
        inbound: dict[int, _Inbound] = {}
        for ch in plan.scripts[rank].recv_channels:
            m = plan.messages[ch]
            inbound[ch] = _Inbound(len(self._recv_posts), m.src, m.n_elements)
            self._recv_posts.append((m.src, PLAN_TAG_BASE + ch))

        def outbound(ch: int) -> _Outbound:
            return ch, plan.messages[ch].dst, PLAN_TAG_BASE + ch

        for dst, _count in halo.send_to:
            if plan.rank_node[dst] == my_node:
                self._initial_send(
                    outbound(direct_channel[(rank, dst)]), halo.send_indices[dst]
                )
        pos = 0
        for src, count in halo.recv_from:
            if plan.rank_node[src] == my_node:
                self._landings.append(
                    (inbound[direct_channel[(src, rank)]], slice(pos, pos + count))
                )
            pos += count

        for (src_node, dst_node), edge in plan.edges.items():
            if src_node == my_node:
                leads = rank == plan.leaders[src_node]
                own_pos = edge.contributors.get(rank)
                own_local = edge.columns[own_pos] - row_lo if own_pos is not None else None
                if leads and edge.gather_channels:
                    fwd = edge.forward_channel
                    self._buffers.append((fwd, int(edge.columns.size)))
                    if own_pos is not None:
                        self._own_shares.append((fwd, _run(own_pos), own_local))
                    self._forwards.append((outbound(fwd), tuple(
                        (inbound[ch], _run(edge.contributors[p]))
                        for p, ch in sorted(edge.gather_channels.items())
                    )))
                elif own_pos is not None:
                    # a gather contribution, or an aggregate its leader owns outright
                    ch = edge.forward_channel if leads else edge.gather_channels[rank]
                    self._initial_send(outbound(ch), own_local)
            if dst_node == my_node:
                entry = edge.consumers.get(rank)
                if rank == plan.leaders[dst_node]:
                    sends = []
                    for q, ch in sorted(edge.scatter_channels.items()):
                        agg_rows = edge.consumers[q][0]
                        self._buffers.append((ch, int(agg_rows.size)))
                        sends.append((outbound(ch), agg_rows))
                    self._scatters.append(
                        (inbound[edge.forward_channel], tuple(sends), entry)
                    )
                elif entry is not None:
                    self._landings.append((inbound[edge.scatter_channels[rank]], entry[1]))

    # ------------------------------------------------------------------
    def allocate(self, cols: tuple[int, ...]) -> dict[int, np.ndarray]:
        """One buffer per message this rank sends, ``cols`` wide (``()`` is
        the 1-D case) — the send half of the engine's ``sweep_buffers``."""
        return {key: np.empty((rows, *cols)) for key, rows in self._buffers}

    def post_receives(self, comm: "Comm") -> "list[Request]":
        """Post every inbound message; a request is known by its position."""
        return [comm.irecv(src, tag) for src, tag in self._recv_posts]

    def pack(self, x: np.ndarray, bufs: dict[int, np.ndarray]) -> None:
        """Gather everything this rank owns into *bufs*."""
        for key, idx in self._packs:
            np.take(x, idx, axis=0, out=bufs[key])
        for key, run, idx in self._own_shares:
            np.take(x, idx, axis=0, out=bufs[key][run])

    def send(self, comm: "Comm", bufs: dict[int, np.ndarray]) -> None:
        """Send every buffer that was complete once packed."""
        for key, dst, tag in self._sends:
            comm.Send(bufs[key], dst, tag)

    def finish(
        self,
        comm: "Comm",
        reqs: "list[Request]",
        bufs: dict[int, np.ndarray],
        halo_out: np.ndarray,
    ) -> None:
        """Complete relays and land every halo segment in *halo_out*."""
        cols = halo_out.shape[1:]
        for (key, dst, tag), parts in self._forwards:
            for inbound, run in parts:
                bufs[key][run] = inbound.wait(reqs, cols)
            comm.Send(bufs[key], dst, tag)
        for inbound, sends, own in self._scatters:
            agg = inbound.wait(reqs, cols)
            for (key, dst, tag), agg_rows in sends:
                comm.Send(np.take(agg, agg_rows, axis=0, out=bufs[key]), dst, tag)
            if own is not None:
                agg_rows, halo_idx = own
                halo_out[halo_idx] = agg[agg_rows]
        for inbound, where in self._landings:
            halo_out[where] = inbound.wait(reqs, cols)
