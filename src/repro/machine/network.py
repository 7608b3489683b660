"""Interconnect models: nonblocking fat tree (QDR IB) and 2-D torus (Gemini).

A network model answers two questions for a point-to-point message:

1. which shared *resources* the transfer occupies, and with how much
   demand (bytes) on each — the simulator's flow engine then applies
   weighted max-min fair sharing among all concurrent transfers;
2. what start-up latency the message pays.

The fat tree is nonblocking: only the two endpoints' NICs can contend,
which is why the Westmere/QDR cluster handles the HMeP matrix's
non-nearest-neighbour traffic well (Sect. 4).  The torus routes messages
over shared links; demand grows with hop count and a background-load
factor models the "strong influence of job topology and machine load"
the paper observed on the Cray XE6.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt
from typing import Callable, Hashable

from repro.util import check_fraction, check_positive_float

__all__ = ["Route", "Interconnect", "FatTree", "Torus2D"]

ResourceKey = Hashable


@dataclass(frozen=True)
class Route:
    """Resource demands of one message transfer.

    ``demands`` maps resource keys to bytes of demand placed on that
    resource; ``latency`` is the fixed start-up cost in seconds.
    """

    latency: float
    demands: tuple[tuple[ResourceKey, float], ...]


@dataclass(frozen=True)
class Interconnect:
    """Base class for interconnect models.

    Subclasses must implement :meth:`route` and :meth:`resources`.
    ``intra_*`` parameters price messages between ranks on the same node
    (shared-memory transport, double copy through a buffer).
    """

    latency: float
    intra_latency: float = 0.6e-6
    intra_bandwidth: float = 5.0e9
    #: NIC occupancy per *message* (seconds): the injection-rate limit of
    #: the network adapter.  Start-up latency is pipelined across
    #: concurrent messages, but a NIC processes message descriptors
    #: serially, so a rank pair exchanging many small messages is bounded
    #: by the NIC's message rate — the effect node-aware communication
    #: plans exploit (PAPERS.md: Bienz, Gropp & Olson).  0 (the default)
    #: keeps the pure bytes-only model.  Intra-node transports are not
    #: charged: their per-message cost is an order of magnitude below the
    #: NIC's and is already represented by ``intra_latency``.
    message_overhead: float = 0.0

    def route(
        self, nbytes: float, src_node: int, dst_node: int, n_nodes: int | None = None
    ) -> Route:
        """Resource demands for an *nbytes* transfer between two node ids.

        ``n_nodes`` is the machine size the transfer runs on; topologies
        whose routing depends on it (the torus) require it, point-to-point
        models (the fat tree) ignore it.
        """
        raise NotImplementedError

    def resources(self, n_nodes: int) -> dict[ResourceKey, Callable[[float], float]]:
        """All resource keys and their capacity functions for *n_nodes* nodes.

        A capacity function maps the total active weight on the resource
        to aggregate bytes/s (constant for plain links).
        """
        raise NotImplementedError

    def _intra_route(self, nbytes: float, node: int) -> Route:
        return Route(self.intra_latency, ((("intra", node), float(nbytes)),))

    def _intra_resources(self, n_nodes: int) -> dict[ResourceKey, Callable[[float], float]]:
        return {("intra", n): _const(self.intra_bandwidth) for n in range(n_nodes)}


def _const(value: float) -> Callable[[float], float]:
    def capacity(_weight: float) -> float:
        return value

    return capacity


@dataclass(frozen=True)
class FatTree(Interconnect):
    """Fully nonblocking fat tree (the paper's QDR InfiniBand cluster).

    Every node injects/extracts through its NIC at ``link_bandwidth`` per
    direction; the spine is nonblocking, so NICs are the only shared
    resources.  QDR IB: ~3.2 GB/s effective per direction, ~1.5 us MPI
    latency.
    """

    link_bandwidth: float = 3.2e9

    def __post_init__(self) -> None:
        check_positive_float(self.link_bandwidth, "link_bandwidth")
        check_positive_float(self.latency, "latency")
        if self.message_overhead < 0:
            raise ValueError(f"message_overhead must be >= 0, got {self.message_overhead}")

    def route(
        self, nbytes: float, src_node: int, dst_node: int, n_nodes: int | None = None
    ) -> Route:
        if src_node == dst_node:
            return self._intra_route(nbytes, src_node)
        nic = float(nbytes) + self.message_overhead * self.link_bandwidth
        return Route(
            self.latency,
            ((("nic_out", src_node), nic), (("nic_in", dst_node), nic)),
        )

    def resources(self, n_nodes: int) -> dict[ResourceKey, Callable[[float], float]]:
        out: dict[ResourceKey, Callable[[float], float]] = {}
        for n in range(n_nodes):
            out[("nic_out", n)] = _const(self.link_bandwidth)
            out[("nic_in", n)] = _const(self.link_bandwidth)
        out.update(self._intra_resources(n_nodes))
        return out


@dataclass(frozen=True)
class Torus2D(Interconnect):
    """2-D torus with dimension-ordered routing (Cray Gemini-like).

    Per-node injection is fast (``link_bandwidth`` > QDR IB), but a
    message consumes capacity on every link of its path: its demand on
    the shared link pool scales with the hop count.  ``background_load``
    removes a fraction of the pool for other jobs sharing the torus —
    the machine-load sensitivity the paper reports.
    """

    link_bandwidth: float = 6.0e9
    background_load: float = 0.0

    def __post_init__(self) -> None:
        check_positive_float(self.link_bandwidth, "link_bandwidth")
        check_positive_float(self.latency, "latency")
        if check_fraction(self.background_load, "background_load") == 1.0:
            # a fully loaded pool has capacity 0: every message would stall
            raise ValueError(f"background_load must lie in [0, 1), got {self.background_load}")
        if self.message_overhead < 0:
            raise ValueError(f"message_overhead must be >= 0, got {self.message_overhead}")

    @staticmethod
    def dims(n_nodes: int) -> tuple[int, int]:
        """Near-square torus dimensions for *n_nodes* (row-major placement)."""
        w = max(1, int(round(sqrt(n_nodes))))
        h = ceil(n_nodes / w)
        return w, h

    def hops(self, src_node: int, dst_node: int, n_nodes: int) -> int:
        """Manhattan distance with wraparound for row-major placement."""
        w, h = self.dims(n_nodes)
        sx, sy = src_node % w, src_node // w
        dx, dy = dst_node % w, dst_node // w
        ddx = min(abs(sx - dx), w - abs(sx - dx))
        ddy = min(abs(sy - dy), h - abs(sy - dy))
        return max(1, ddx + ddy)

    def route(
        self, nbytes: float, src_node: int, dst_node: int, n_nodes: int | None = None
    ) -> Route:
        if src_node == dst_node:
            return self._intra_route(nbytes, src_node)
        if n_nodes is None:
            raise ValueError("Torus2D.route() needs n_nodes (hop count depends on it)")
        hops = self.hops(src_node, dst_node, n_nodes)
        nic = float(nbytes) + self.message_overhead * self.link_bandwidth
        return Route(
            self.latency,
            (
                (("nic_out", src_node), nic),
                (("nic_in", dst_node), nic),
                (("torus_links",), float(nbytes) * hops),
            ),
        )

    def resources(self, n_nodes: int) -> dict[ResourceKey, Callable[[float], float]]:
        out: dict[ResourceKey, Callable[[float], float]] = {}
        for n in range(n_nodes):
            out[("nic_out", n)] = _const(self.link_bandwidth)
            out[("nic_in", n)] = _const(self.link_bandwidth)
        # The shared pool is bisection-limited, not injection-limited: cutting
        # a (w x h) torus across the smaller dimension severs 2·min(w,h)
        # bidirectional link pairs, so uniform traffic sustains
        # O(sqrt(N)·link) aggregate throughput — the reason non-nearest-
        # neighbour communication scales poorly on the torus (Sect. 4).
        # A fraction is eaten by background jobs sharing the machine.
        w, h = self.dims(n_nodes)
        pool = 4.0 * min(w, h) * self.link_bandwidth * (1.0 - self.background_load)
        out[("torus_links",)] = _const(pool)
        out.update(self._intra_resources(n_nodes))
        return out
