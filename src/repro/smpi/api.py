"""Simulated MPI: point-to-point messaging with realistic progress semantics.

The paper's central observation (Sect. 3) is that "most MPI
implementations support progress, i.e., actual data transfer, only when
MPI library code is executed by the user process".  This module models
exactly that:

* **eager** messages (≤ ``eager_threshold``) leave the sender as soon as
  the send is posted — small transfers appear asynchronous, as on real
  InfiniBand hardware with preposted buffers;
* **rendezvous** messages (the halo exchanges that matter) transfer
  *only while both endpoints are inside an MPI call* — posting an
  ``Isend``/``Irecv`` and then computing moves no bytes until the
  ``Waitall``;
* with ``async_progress=True`` the gate is removed, modelling an MPI
  library with working progress threads (the paper's outlook: "MPI
  implementations could use the same strategy internally").

Ranks enter/leave the library via :meth:`SimMPI.waitall` (or the
``enter_mpi``/``exit_mpi`` pair); a rank's MPI depth is a counter, so a
dedicated communication thread sitting in ``Waitall`` keeps the gate
open while compute threads work — which is precisely how task mode
achieves explicit overlap.

Transfers are flows on the shared :class:`~repro.frame.resources.FlowNetwork`,
so concurrent messages contend for NICs and torus links realistically.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

from repro.frame.core import Simulator
from repro.frame.events import SimEvent, all_of
from repro.frame.resources import Flow, FlowNetwork
from repro.frame.trace import TraceRecorder
from repro.machine.network import Interconnect
from repro.util import check_nonnegative_int

__all__ = ["MPIConfig", "SimRequest", "SimMPI"]


@dataclass(frozen=True)
class MPIConfig:
    """Tunables of the simulated MPI library.

    ``eager_threshold`` is bytes; 16 KiB matches common defaults of the
    2010-era MPI libraries the paper tested (Intel MPI 4.0.1, OpenMPI 1.5).
    """

    eager_threshold: int = 16384
    async_progress: bool = False


@dataclass
class SimRequest:
    """Handle for a nonblocking operation; ``done`` fires on completion."""

    kind: str  # "send" | "recv"
    src: int
    dst: int
    tag: int
    nbytes: int
    done: SimEvent = field(default_factory=SimEvent)


@dataclass
class _Message:
    """Internal matched-transfer bookkeeping.

    ``wire_done`` fires when the payload has fully arrived; a receive
    that matches an already-started eager transfer completes then.
    ``mid`` is a world-unique message id used to correlate the
    structured trace events of one transfer's lifecycle.
    """

    mid: int = -1
    send: SimRequest | None = None
    recv: SimRequest | None = None
    flow: Flow | None = None
    started: bool = False
    wire_done: SimEvent = field(default_factory=SimEvent)


class SimMPI:
    """A simulated MPI world over a shared flow network.

    Parameters
    ----------
    sim:
        Simulator (clock + scheduling).
    net:
        The flow network; must already contain the interconnect's
        resources (see :meth:`Interconnect.resources`).
    interconnect:
        Routing/latency model.
    rank_node:
        Node id of each rank (index = rank).
    config:
        Library behaviour knobs.
    """

    def __init__(
        self,
        sim: Simulator,
        net: FlowNetwork,
        interconnect: Interconnect,
        rank_node: list[int],
        config: MPIConfig | None = None,
        trace: TraceRecorder | None = None,
        n_nodes: int | None = None,
    ) -> None:
        self._sim = sim
        self._net = net
        self._icn = interconnect
        self._rank_node = list(rank_node)
        # machine size for topology-dependent routing (torus hop counts);
        # defaults to the span of the placed ranks
        self._n_nodes = n_nodes if n_nodes is not None else max(self._rank_node) + 1
        self.config = config or MPIConfig()
        self.trace = trace
        self._depth = [0] * len(rank_node)
        self._pending_send: dict[tuple[int, int, int], deque[_Message]] = {}
        self._pending_recv: dict[tuple[int, int, int], deque[_Message]] = {}
        # rendezvous flows gated by each rank's MPI state
        self._gated: dict[int, list[_Message]] = {r: [] for r in range(len(rank_node))}
        self.bytes_transferred = 0.0
        self._next_mid = 0

    def _emit(self, actor: str, name: str, **args) -> None:
        """Trace instant at the current simulated time."""
        if self.trace is not None:
            self.trace.emit(self._sim.now, actor, name, **args)

    @property
    def nranks(self) -> int:
        """Number of ranks in the simulated world."""
        return len(self._rank_node)

    def node_of(self, rank: int) -> int:
        """Node id hosting *rank*."""
        return self._rank_node[rank]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(
        self, src: int, dst: int, nbytes: int, tag: int = 0, phase: str | None = None
    ) -> SimRequest:
        """Post a nonblocking send of *nbytes* from *src* to *dst*.

        ``phase`` labels the message's role in a communication plan
        (``direct``/``gather``/``forward``/``scatter``) in the trace.
        """
        nbytes = check_nonnegative_int(nbytes, "nbytes")
        req = SimRequest("send", src, dst, tag, nbytes)
        key = (src, dst, tag)
        self._emit(
            f"rank{src}", "msg_posted", kind="send",
            src=src, dst=dst, tag=tag, nbytes=nbytes,
            **({"phase": phase} if phase is not None else {}),
        )
        queue = self._pending_recv.get(key)
        if queue:
            msg = queue.popleft()
            msg.send = req
            self._emit(f"rank{src}", "msg_matched", mid=msg.mid, src=src, dst=dst)
            self._launch(msg)
        else:
            msg = self._new_message(send=req)
            self._pending_send.setdefault(key, deque()).append(msg)
            if nbytes <= self.config.eager_threshold:
                # eager data leaves immediately even without a matching recv
                self._launch(msg, eager_unmatched=True)
        return req

    def irecv(
        self, dst: int, src: int, nbytes: int, tag: int = 0, phase: str | None = None
    ) -> SimRequest:
        """Post a nonblocking receive at *dst* for a message from *src*."""
        nbytes = check_nonnegative_int(nbytes, "nbytes")
        req = SimRequest("recv", src, dst, tag, nbytes)
        key = (src, dst, tag)
        self._emit(
            f"rank{dst}", "msg_posted", kind="recv",
            src=src, dst=dst, tag=tag, nbytes=nbytes,
            **({"phase": phase} if phase is not None else {}),
        )
        queue = self._pending_send.get(key)
        if queue:
            msg = queue.popleft()
            msg.recv = req
            self._emit(f"rank{dst}", "msg_matched", mid=msg.mid, src=src, dst=dst)
            if msg.started:
                # eager transfer already under way (or finished): the recv
                # completes once the payload is on the wire's far side
                msg.wire_done.add_callback(lambda _v: req.done.succeed(req))
            else:
                self._launch(msg)
        else:
            msg = self._new_message(recv=req)
            self._pending_recv.setdefault(key, deque()).append(msg)
        return req

    def _new_message(self, **kwargs) -> _Message:
        msg = _Message(mid=self._next_mid, **kwargs)
        self._next_mid += 1
        return msg

    # ------------------------------------------------------------------
    # progress state
    # ------------------------------------------------------------------
    def enter_mpi(self, rank: int) -> None:
        """Mark *rank* as executing MPI library code."""
        self._depth[rank] += 1
        if self._depth[rank] == 1:
            self._emit(f"rank{rank}", "gate_open", rank=rank)
            self._update_gates(rank)

    def exit_mpi(self, rank: int) -> None:
        """Mark *rank* as having left the MPI library."""
        if self._depth[rank] <= 0:
            raise RuntimeError(f"rank {rank} exit_mpi without matching enter_mpi")
        self._depth[rank] -= 1
        if self._depth[rank] == 0:
            self._emit(f"rank{rank}", "gate_close", rank=rank)
            self._update_gates(rank)

    def waitall(self, rank: int, requests: list[SimRequest]) -> Generator:
        """Block inside MPI until every request completes (sub-generator).

        Usage inside a simulation process::

            yield from mpi.waitall(rank, reqs)

        This is where the progress gate is held open: the sweep IR's
        ``WAITALL`` op lowers to this call, and Fig. 4c's dedicated
        communication thread (a ``COMM_THREAD`` region in
        :mod:`repro.program`) spends its life inside it so transfers
        progress while the compute threads run the local spMVM.
        """
        self.enter_mpi(rank)
        try:
            yield all_of([r.done for r in requests])
        finally:
            self.exit_mpi(rank)

    # ------------------------------------------------------------------
    # simple collectives (analytic log-tree models)
    # ------------------------------------------------------------------
    def allreduce_time(self, nbytes: int) -> float:
        """Modelled duration of an allreduce over all ranks.

        Log-tree: ``ceil(log2 P)`` rounds of latency + bandwidth term.
        Used by the iterative solvers for their dot products.  On a
        degenerate route with no bandwidth-limited resources the model
        falls back to latency only (with a warning) instead of crashing.
        """
        p = max(1, self.nranks)
        rounds = math.ceil(math.log2(p)) if p > 1 else 0
        if rounds == 0:
            return 0.0
        bandwidth = self._min_link_bandwidth()
        if math.isinf(bandwidth):
            warnings.warn(
                "allreduce probe route between ranks 0 and "
                f"{self.nranks - 1} declares no bandwidth-limited resources; "
                "falling back to a latency-only allreduce model",
                RuntimeWarning,
                stacklevel=2,
            )
            return rounds * self._icn.latency
        per_round = self._icn.latency + nbytes / bandwidth
        return rounds * per_round

    def allreduce(self, rank: int, nbytes: int = 8) -> Generator:
        """Sub-generator: occupy *rank* inside MPI for one allreduce."""
        self.enter_mpi(rank)
        try:
            yield self._sim.timeout(self.allreduce_time(nbytes))
        finally:
            self.exit_mpi(rank)

    def _min_link_bandwidth(self) -> float:
        """Minimum capacity along a representative route.

        Returns ``inf`` when the route is degenerate (no resource
        demands), so callers can fall back to a latency-only model; an
        unregistered resource key raises a descriptive error instead of
        a bare ``KeyError``/``ValueError``.
        """
        src_node = self._rank_node[0]
        dst_node = self._rank_node[-1]
        probe = self._icn.route(1.0, src_node, dst_node, self._n_nodes)
        capacities = []
        for key, _demand in probe.demands:
            try:
                capacities.append(self._net.capacity_of(key, 1.0))
            except KeyError as exc:
                raise RuntimeError(
                    f"allreduce probe route (node {src_node} -> {dst_node}) uses "
                    f"resource {key!r} which is not registered on the flow network"
                ) from exc
        if not capacities:
            return math.inf
        return min(capacities)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _launch(self, msg: _Message, *, eager_unmatched: bool = False) -> None:
        """Start the wire transfer for a matched (or eager) message."""
        msg.started = True
        send = msg.send
        assert send is not None
        eager = send.nbytes <= self.config.eager_threshold
        route = self._icn.route(
            max(1, send.nbytes), self.node_of(send.src), self.node_of(send.dst),
            self._n_nodes,
        )
        gated = not eager and not self.config.async_progress

        def begin() -> None:
            paused = gated and not self._gate_open(send.src, send.dst)
            flow = self._net.start_flow(
                max(1, send.nbytes),
                {k: mult / max(1, send.nbytes) for k, mult in route.demands},
                paused=paused,
                label=f"msg {send.src}->{send.dst} ({send.nbytes} B)",
            )
            msg.flow = flow
            self._emit(
                f"rank{send.src}", "wire_started", mid=msg.mid,
                src=send.src, dst=send.dst, nbytes=send.nbytes,
                protocol="eager" if eager else "rendezvous",
                paused=paused, transferred=0.0,
            )
            if gated:
                self._gated[send.src].append(msg)
                self._gated[send.dst].append(msg)
            flow.done.add_callback(lambda _f: self._complete(msg))

        # the start-up latency is paid once per message
        self._sim.schedule(route.latency, begin)
        if eager:
            # an eager send completes locally as soon as the data left the
            # user buffer; model that as the message latency
            self._sim.schedule(route.latency, lambda: send.done.succeed(send))
        if eager_unmatched:
            return

    def _complete(self, msg: _Message) -> None:
        send, recv = msg.send, msg.recv
        assert send is not None
        self.bytes_transferred += send.nbytes
        self._emit(
            f"rank{send.src}", "msg_completed", mid=msg.mid,
            src=send.src, dst=send.dst, nbytes=send.nbytes,
            transferred=float(send.nbytes),
        )
        msg.wire_done.succeed(msg)
        if not send.done.triggered:
            send.done.succeed(send)
        if recv is not None and not recv.done.triggered:
            recv.done.succeed(recv)
        for rank in (send.src, send.dst):
            if msg in self._gated.get(rank, ()):
                self._gated[rank].remove(msg)

    def _gate_open(self, src: int, dst: int) -> bool:
        return self.config.async_progress or (self._depth[src] > 0 and self._depth[dst] > 0)

    def _update_gates(self, rank: int) -> None:
        for msg in list(self._gated.get(rank, ())):
            if msg.flow is None:
                continue
            send = msg.send
            assert send is not None
            flow = msg.flow
            if self._gate_open(send.src, send.dst):
                if flow.paused:
                    self._net.resume(flow)
                    self._emit(
                        f"rank{send.src}", "msg_resumed", mid=msg.mid,
                        src=send.src, dst=send.dst, nbytes=send.nbytes,
                        transferred=flow.size - flow.remaining,
                    )
            elif not flow.paused:
                self._net.pause(flow)
                self._emit(
                    f"rank{send.src}", "msg_gated", mid=msg.mid,
                    src=send.src, dst=send.dst, nbytes=send.nbytes,
                    transferred=flow.size - flow.remaining,
                )
