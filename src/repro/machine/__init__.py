"""Machine descriptions: node topologies, saturation curves, interconnects.

Presets calibrated to the paper's three systems (Nehalem EP, Westmere EP,
Cray XE6/Magny Cours) live in :mod:`repro.machine.presets`; placement
policies for the hybrid modes in :mod:`repro.machine.affinity`.
"""

from repro.machine.affinity import HYBRID_MODES, RankPlacement, plan_placement, ranks_for_mode
from repro.machine.network import FatTree, Interconnect, Route, Torus2D
from repro.machine.presets import (
    PRESET_NODES,
    cray_xe6_cluster,
    magny_cours_node,
    nehalem_ep_node,
    westmere_cluster,
    westmere_ep_node,
)
from repro.machine.topology import (
    ClusterSpec,
    LocalityDomain,
    NodeSpec,
    Socket,
    render_node_ascii,
)

__all__ = [
    "HYBRID_MODES",
    "RankPlacement",
    "plan_placement",
    "ranks_for_mode",
    "FatTree",
    "Torus2D",
    "Interconnect",
    "Route",
    "PRESET_NODES",
    "nehalem_ep_node",
    "westmere_ep_node",
    "magny_cours_node",
    "westmere_cluster",
    "cray_xe6_cluster",
    "ClusterSpec",
    "LocalityDomain",
    "NodeSpec",
    "Socket",
    "render_node_ascii",
]
