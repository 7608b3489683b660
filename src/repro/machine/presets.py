"""Calibrated machine presets for the paper's three test systems.

All bandwidth tables are calibrated against the measurements reported in
the paper (Sect. 1.3.2, Sect. 2, Fig. 3); entries not printed in the
paper are interpolated from the printed ones using the standard
saturation shape of the respective memory subsystem.  Sources:

* Nehalem EP spMVM curve: Fig. 3(a) performance annotations
  0.91/1.50/1.95/2.25 GFlop/s at 1-4 cores with κ = 2.5, i.e. a code
  balance of 8.05 bytes/flop → drawn bandwidths 7.3/12.1/15.7/18.1 GB/s
  (the 18.1 GB/s socket figure is quoted in the text).
* Nehalem STREAM triad: 21.2 GB/s saturated (quoted), early saturation.
* Westmere EP: same microarchitecture and memory channels ("the two
  Intel platforms represent a tick step"); the LD saturates at the same
  level scaled slightly up, spMVM reaching 85 % of STREAM (quoted
  criterion), which puts the node at ≈ 5 GFlop/s for HMeP.
* Magny Cours: per-LD weaker, full node ≈ 25 % above Westmere (quoted),
  four LDs per node, eight DDR3-1333 channels total.
* QDR InfiniBand: ≈ 3.2 GB/s effective per direction per node, ≈ 1.5 us
  MPI latency (standard QDR figures).
* Cray Gemini: higher injection bandwidth than QDR ("beyond the
  capability of QDR InfiniBand"), 2-D torus shared-link routing.
"""

from __future__ import annotations

from repro.machine.network import FatTree, Torus2D
from repro.machine.topology import ClusterSpec, LocalityDomain, NodeSpec, Socket
from repro.model.saturation import SaturationCurve
from repro.util import gb_per_s

__all__ = [
    "nehalem_ep_node",
    "westmere_ep_node",
    "magny_cours_node",
    "westmere_cluster",
    "cray_xe6_cluster",
    "PRESET_NODES",
]


def _curve(table: dict[int, float]) -> SaturationCurve:
    return SaturationCurve.from_table({k: gb_per_s(v) for k, v in table.items()})


# ----------------------------------------------------------------------
# Intel Nehalem EP (Xeon X5550): 4 cores/socket, SMT2, 3x DDR3-1333 per LD
# ----------------------------------------------------------------------
_NEHALEM_STREAM = _curve({1: 11.0, 2: 17.5, 3: 20.5, 4: 21.2})
_NEHALEM_SPMV = _curve({1: 7.32, 2: 12.08, 3: 15.70, 4: 18.11})
_NEHALEM_PEAK_CORE = 2.66e9 * 4  # 2.66 GHz x 4 DP flops/cycle (SSE mul+add)


def nehalem_ep_node() -> NodeSpec:
    """Dual-socket Nehalem EP node: 2 LDs x 4 cores, SMT enabled."""
    ld = LocalityDomain(
        n_cores=4,
        smt_per_core=2,
        stream_curve=_NEHALEM_STREAM,
        spmv_curve=_NEHALEM_SPMV,
        peak_core_flops=_NEHALEM_PEAK_CORE,
    )
    return NodeSpec(
        name="Nehalem EP (2x X5550)",
        sockets=(Socket((ld,)), Socket((ld,))),
        nic_bandwidth=gb_per_s(3.2),
        nic_latency=1.5e-6,
        intra_bandwidth=gb_per_s(5.0),
        intra_latency=0.6e-6,
    )


# ----------------------------------------------------------------------
# Intel Westmere EP (Xeon X5650): 6 cores/socket, SMT2, 3x DDR3-1333 per LD
# ----------------------------------------------------------------------
_WESTMERE_STREAM = _curve({1: 11.5, 2: 18.0, 3: 21.5, 4: 23.0, 5: 23.4, 6: 23.5})
_WESTMERE_SPMV = _curve({1: 7.4, 2: 12.3, 3: 16.0, 4: 18.8, 5: 19.8, 6: 20.1})
_WESTMERE_PEAK_CORE = 2.66e9 * 4


def westmere_ep_node() -> NodeSpec:
    """Dual-socket Westmere EP node: 2 LDs x 6 cores, SMT enabled (Fig. 2a)."""
    ld = LocalityDomain(
        n_cores=6,
        smt_per_core=2,
        stream_curve=_WESTMERE_STREAM,
        spmv_curve=_WESTMERE_SPMV,
        peak_core_flops=_WESTMERE_PEAK_CORE,
    )
    return NodeSpec(
        name="Westmere EP (2x X5650)",
        sockets=(Socket((ld,)), Socket((ld,))),
        nic_bandwidth=gb_per_s(3.2),
        nic_latency=1.5e-6,
        intra_bandwidth=gb_per_s(5.0),
        intra_latency=0.6e-6,
    )


# ----------------------------------------------------------------------
# AMD Magny Cours (Opteron 6172): 12-core package = 2 LDs x 6 cores,
# 2x DDR3-1333 per LD, no SMT
# ----------------------------------------------------------------------
_MAGNY_STREAM = _curve({1: 7.0, 2: 11.5, 3: 13.2, 4: 13.8, 5: 13.9, 6: 14.0})
_MAGNY_SPMV = _curve({1: 4.8, 2: 8.4, 3: 10.8, 4: 12.0, 5: 12.4, 6: 12.6})
_MAGNY_PEAK_CORE = 2.1e9 * 4


def magny_cours_node() -> NodeSpec:
    """Dual-socket Magny Cours node: 4 LDs x 6 cores (Fig. 2b)."""
    ld = LocalityDomain(
        n_cores=6,
        smt_per_core=1,
        stream_curve=_MAGNY_STREAM,
        spmv_curve=_MAGNY_SPMV,
        peak_core_flops=_MAGNY_PEAK_CORE,
    )
    return NodeSpec(
        name="Cray XE6 / AMD Magny Cours (2x Opteron 6172)",
        sockets=(Socket((ld, ld)), Socket((ld, ld))),
        nic_bandwidth=gb_per_s(6.0),
        nic_latency=1.4e-6,
        intra_bandwidth=gb_per_s(5.0),
        intra_latency=0.6e-6,
    )


def westmere_cluster(n_nodes: int = 32, *, message_overhead: float = 0.0) -> ClusterSpec:
    """The paper's Westmere cluster: QDR IB nonblocking fat tree.

    ``message_overhead`` (seconds of NIC occupancy per message) models
    the adapter's injection-rate limit; 0 keeps the bytes-only model.
    """
    return ClusterSpec(
        name="Westmere/QDR-IB cluster",
        node=westmere_ep_node(),
        n_nodes=n_nodes,
        network=FatTree(
            latency=1.5e-6,
            link_bandwidth=gb_per_s(3.2),
            message_overhead=message_overhead,
        ),
    )


def cray_xe6_cluster(
    n_nodes: int = 32,
    *,
    background_load: float = 0.35,
    message_overhead: float = 0.0,
) -> ClusterSpec:
    """The paper's Cray XE6: Gemini 2-D torus, shared with other jobs.

    ``background_load`` models the machine-load/job-topology sensitivity
    the paper observed; 0.35 reproduces the reported behaviour (on par
    with Westmere for pure MPI on HMeP, behind it at scale).
    ``message_overhead`` (seconds of NIC occupancy per message) models
    Gemini's small-message injection-rate limit; 0 keeps the bytes-only
    model (see :class:`repro.machine.network.Interconnect`).
    """
    return ClusterSpec(
        name="Cray XE6 (Gemini torus)",
        node=magny_cours_node(),
        n_nodes=n_nodes,
        network=Torus2D(
            latency=1.4e-6,
            link_bandwidth=gb_per_s(6.0),
            background_load=background_load,
            message_overhead=message_overhead,
        ),
    )


PRESET_NODES = {
    "nehalem": nehalem_ep_node,
    "westmere": westmere_ep_node,
    "magny_cours": magny_cours_node,
}
