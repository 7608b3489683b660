"""Hardware topology descriptions: cores, NUMA domains, sockets, nodes.

The paper's Fig. 2 shows the two node architectures; this module encodes
such topologies as plain dataclasses that the simulator, the affinity
policies and the experiment harnesses all consume.  A *locality domain*
(LD) is the unit that owns a memory interface — one per socket on Intel
Westmere, two per socket on AMD Magny Cours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.saturation import SaturationCurve
from repro.util import check_positive_float, check_positive_int

__all__ = ["LocalityDomain", "Socket", "NodeSpec", "ClusterSpec", "render_node_ascii"]


@dataclass(frozen=True)
class LocalityDomain:
    """One ccNUMA locality domain: cores + a memory interface.

    Parameters
    ----------
    n_cores:
        Physical cores in the domain.
    smt_per_core:
        Hardware threads per physical core (2 on Westmere/Nehalem with
        SMT enabled, 1 on Magny Cours).
    stream_curve:
        Aggregate STREAM-triad bandwidth vs active cores (bytes/s).
    spmv_curve:
        Aggregate bandwidth the spMVM-style access pattern draws vs
        active cores.  The paper measures this separately (Fig. 3a);
        it saturates later and slightly below STREAM.
    peak_core_flops:
        Double-precision in-core peak per core, flop/s.
    """

    n_cores: int
    smt_per_core: int
    stream_curve: SaturationCurve
    spmv_curve: SaturationCurve
    peak_core_flops: float

    def __post_init__(self) -> None:
        check_positive_int(self.n_cores, "n_cores")
        check_positive_int(self.smt_per_core, "smt_per_core")
        check_positive_float(self.peak_core_flops, "peak_core_flops")

    @property
    def stream_bandwidth(self) -> float:
        """Saturated STREAM triad bandwidth of the domain (bytes/s)."""
        return self.stream_curve.saturated

    @property
    def spmv_bandwidth(self) -> float:
        """Saturated spMVM-pattern bandwidth of the domain (bytes/s)."""
        return self.spmv_curve.saturated


@dataclass(frozen=True)
class Socket:
    """A processor package: one or more locality domains.

    Magny Cours packages two 6-core dies (two LDs) per socket; Intel
    sockets are a single LD.
    """

    domains: tuple[LocalityDomain, ...]

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("a socket needs at least one locality domain")

    @property
    def n_cores(self) -> int:
        """Physical cores in the package."""
        return sum(d.n_cores for d in self.domains)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: sockets plus a network interface.

    ``nic_bandwidth``/``nic_latency`` describe the injection capability of
    the node into the interconnect (shared by all ranks on the node);
    ``intra_bandwidth``/``intra_latency`` price intranode (shared-memory)
    MPI messages.
    """

    name: str
    sockets: tuple[Socket, ...]
    nic_bandwidth: float
    nic_latency: float
    intra_bandwidth: float
    intra_latency: float

    def __post_init__(self) -> None:
        if not self.sockets:
            raise ValueError("a node needs at least one socket")
        check_positive_float(self.nic_bandwidth, "nic_bandwidth")
        check_positive_float(self.nic_latency, "nic_latency")
        check_positive_float(self.intra_bandwidth, "intra_bandwidth")
        check_positive_float(self.intra_latency, "intra_latency")

    @property
    def domains(self) -> tuple[LocalityDomain, ...]:
        """All locality domains of the node, socket-major order."""
        return tuple(d for s in self.sockets for d in s.domains)

    @property
    def n_domains(self) -> int:
        """Number of NUMA locality domains."""
        return len(self.domains)

    @property
    def n_cores(self) -> int:
        """Physical cores in the node."""
        return sum(s.n_cores for s in self.sockets)

    @property
    def smt_per_core(self) -> int:
        """SMT ways (assumed homogeneous across the node)."""
        return self.domains[0].smt_per_core

    @property
    def stream_bandwidth(self) -> float:
        """Aggregate saturated STREAM bandwidth of all domains."""
        return sum(d.stream_bandwidth for d in self.domains)

    @property
    def spmv_bandwidth(self) -> float:
        """Aggregate saturated spMVM bandwidth of all domains."""
        return sum(d.spmv_bandwidth for d in self.domains)

    def cores_per_domain(self) -> int:
        """Cores per LD (assumed homogeneous)."""
        return self.domains[0].n_cores


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: N identical nodes on one interconnect.

    The interconnect object lives in :mod:`repro.machine.network`; it is
    referenced loosely here to avoid an import cycle.
    """

    name: str
    node: NodeSpec
    n_nodes: int
    network: object = field(repr=False, default=None)

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")


def render_node_ascii(node: NodeSpec) -> str:
    """ASCII rendering of a node topology (the Fig. 2 reproduction)."""
    lines = [f"Node: {node.name}  ({node.n_cores} cores, {node.n_domains} NUMA LDs)"]
    for si, sock in enumerate(node.sockets):
        lines.append(f"+-- socket {si} " + "-" * 40)
        for dom in sock.domains:
            cores = " ".join(
                f"[P{'/'.join(['T'] * dom.smt_per_core)}]" for _ in range(dom.n_cores)
            )
            lines.append(f"|  LD: {cores}")
            lines.append(
                f"|      L3 + memory interface: "
                f"{dom.stream_bandwidth / 1e9:.1f} GB/s STREAM, "
                f"{dom.spmv_bandwidth / 1e9:.1f} GB/s spMVM"
            )
        lines.append("+" + "-" * 52)
    lines.append(
        f"NIC: {node.nic_bandwidth / 1e9:.1f} GB/s, {node.nic_latency * 1e6:.1f} us latency"
    )
    return "\n".join(lines)
