"""Replaying a communication plan inside the performance simulator.

One :class:`SimExchange` per rank drives the plan's messages through the
simulated MPI: sweep-start sends and receives are posted where the sweep
program's ``POST_SENDS``/``POST_RECVS`` ops execute
(``repro.program.sim``), and every
:class:`~repro.comm.plan.Relay` (a leader waiting for intra-node gathers
before forwarding, or for a forward before scattering) becomes a spawned
simulator subprocess.  Relay sends inherit the full MPI progress
semantics — a forward posted while its rank computes stays gated until
the rank re-enters the library, exactly like any other rendezvous
message.

Channel tags are ``sweep * n_channels + channel``, unique per logical
message per sweep, so drifting ranks can never mismatch them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.comm.plan import ELEMENT_BYTES, CommPlan
from repro.frame.events import SimEvent, all_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schemes import RankContext

__all__ = ["SimExchange"]


class _RelayHandle:
    """Waitall-compatible handle for a relay duty (only ``done`` is read)."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = SimEvent()


class SimExchange:
    """Per-rank replay driver for one :class:`CommPlan` in the simulator."""

    def __init__(self, plan: CommPlan, rank: int) -> None:
        self.plan = plan
        self.script = plan.scripts[rank]
        self._stride = max(1, plan.n_channels)
        # per-sweep inbound requests, keyed by channel, for the relays
        self._pending: dict[int, dict[int, object]] = {}

    def _tag(self, sweep: int, channel: int) -> int:
        return sweep * self._stride + channel

    def post_receives(self, ctx: "RankContext", sweep: int) -> list:
        """Post every inbound message of this rank for one sweep."""
        msgs = self.plan.messages
        reqs: dict[int, object] = {}
        for ch in self.script.recv_channels:
            m = msgs[ch]
            reqs[ch] = ctx.mpi.irecv(
                ctx.rank, m.src, ELEMENT_BYTES * ctx.block_k * m.n_elements,
                self._tag(sweep, ch), phase=m.phase,
            )
        self._pending[sweep] = reqs
        return list(reqs.values())

    def post_sends(self, ctx: "RankContext", sweep: int) -> list:
        """Post the payload-ready sends and spawn the relay duties.

        Returns the send requests plus one handle per relay; a scheme's
        ``Waitall`` over receives + this list completes only when the
        whole exchange (including forwarded traffic) is done.
        """
        msgs = self.plan.messages
        out: list = []
        for ch in self.script.send_channels:
            m = msgs[ch]
            out.append(
                ctx.mpi.isend(
                    ctx.rank, m.dst, ELEMENT_BYTES * ctx.block_k * m.n_elements,
                    self._tag(sweep, ch), phase=m.phase,
                )
            )
        reqs = self._pending.pop(sweep, {})
        for i, relay in enumerate(self.script.relays):
            handle = _RelayHandle()
            ctx.sim.spawn(
                self._relay(ctx, relay, reqs, sweep, handle),
                name=f"rank{ctx.rank}-relay{sweep}.{i}",
            )
            out.append(handle)
        return out

    def _relay(
        self, ctx: "RankContext", relay, reqs: dict[int, object],
        sweep: int, handle: _RelayHandle,
    ) -> Generator:
        yield all_of([reqs[ch].done for ch in relay.recv_channels])
        msgs = self.plan.messages
        sends = [
            ctx.mpi.isend(
                ctx.rank, msgs[ch].dst,
                ELEMENT_BYTES * ctx.block_k * msgs[ch].n_elements,
                self._tag(sweep, ch), phase=msgs[ch].phase,
            )
            for ch in relay.send_channels
        ]
        yield all_of([s.done for s in sends])
        handle.done.succeed()
