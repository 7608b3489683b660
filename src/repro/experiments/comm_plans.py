"""Direct vs node-aware communication plans (repro.comm) across machines.

Two parts:

1. **Plan accounting** — for HMeP and sAMG on both machine presets
   (Westmere/fat-tree and Magny Cours/torus), reduce the direct and the
   node-aware plan of the same halo exchange to their message counts,
   injected inter-node bytes, worst per-NIC load and duplicate factor
   (:func:`repro.comm.plan_stats`).  No simulation — this is pure
   bookkeeping from the partitioned matrices.

2. **Strong-scaling sweep** — a Fig.-5-style HMeP sweep on the Cray
   torus in pure-MPI mode (one rank per core, 24 per node), simulated
   under both plans with the Gemini NIC's injection-rate limit switched
   on (:data:`~repro.experiments.calibration.TORUS_MESSAGE_OVERHEAD`).
   Pure MPI multiplies the inter-node message count by the ranks-per-
   node squared, so the message-rate wall dominates the direct plan
   while the node-aware plan sends one aggregated message per node pair
   — the regime of PAPERS.md's node-aware literature, and the hybrid
   motivation of the paper seen from the communication side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm import build_comm_plan, compare_plans
from repro.core.halo import build_halo_plan
from repro.core.runner import simulate_spmvm
from repro.experiments.calibration import (
    REDUCED_EAGER_THRESHOLD,
    TORUS_MESSAGE_OVERHEAD,
    kappa_for,
)
from repro.machine.affinity import plan_placement, ranks_for_mode
from repro.machine.presets import cray_xe6_cluster, westmere_cluster
from repro.matrices.collection import get_matrix
from repro.sparse.partition import partition_matrix
from repro.util import Table

__all__ = [
    "PlanStatRow",
    "PlanScalingPoint",
    "CommPlansResult",
    "run_comm_plans",
]

_CLUSTERS = {
    "westmere": westmere_cluster,
    "cray": cray_xe6_cluster,
}


@dataclass(frozen=True)
class PlanStatRow:
    """Plan accounting for one (matrix, cluster, mode, node count)."""

    matrix: str
    cluster: str
    mode: str
    n_nodes: int
    n_ranks: int
    direct_internode_messages: int
    node_aware_internode_messages: int
    direct_injected_mb: float
    node_aware_injected_mb: float
    duplicate_factor: float
    predicted_speedup: float


@dataclass(frozen=True)
class PlanScalingPoint:
    """One node count of the simulated direct vs node-aware sweep."""

    n_nodes: int
    n_ranks: int
    direct_gflops: float
    node_aware_gflops: float

    @property
    def speedup(self) -> float:
        """Node-aware over direct (>= 1 when aggregation pays off)."""
        if self.direct_gflops == 0:
            return 1.0
        return self.node_aware_gflops / self.direct_gflops


@dataclass
class CommPlansResult:
    """Plan accounting rows plus the simulated strong-scaling sweep."""

    stat_rows: list[PlanStatRow] = field(default_factory=list)
    sweep: list[PlanScalingPoint] = field(default_factory=list)
    sweep_matrix: str = "HMeP"
    sweep_mode: str = "per-core"
    sweep_scheme: str = "no_overlap"

    def render(self) -> str:
        """Both tables, stacked."""
        t = Table(
            ["matrix", "cluster", "mode", "nodes", "ranks",
             "inter msgs d", "inter msgs na", "inj MB d", "inj MB na",
             "dup", "pred speedup"],
            title="communication-plan accounting (direct vs node-aware)",
            float_fmt=".3f",
        )
        for r in self.stat_rows:
            t.add_row([
                r.matrix, r.cluster, r.mode, r.n_nodes, r.n_ranks,
                r.direct_internode_messages, r.node_aware_internode_messages,
                r.direct_injected_mb, r.node_aware_injected_mb,
                r.duplicate_factor, r.predicted_speedup,
            ])
        out = t.render()
        if self.sweep:
            s = Table(
                ["nodes", "ranks", "direct GF/s", "node-aware GF/s", "speedup"],
                title=(
                    f"{self.sweep_matrix} strong scaling on the Cray torus, "
                    f"{self.sweep_mode}/{self.sweep_scheme} "
                    f"(message rate limited, simulated)"
                ),
                float_fmt=".2f",
            )
            for p in self.sweep:
                s.add_row([
                    p.n_nodes, p.n_ranks, p.direct_gflops,
                    p.node_aware_gflops, p.speedup,
                ])
            out += "\n\n" + s.render()
        return out


def _stat_rows(
    scale: str,
    matrices: tuple[str, ...],
    node_counts: tuple[int, ...],
    mode: str,
) -> list[PlanStatRow]:
    rows = []
    for name in matrices:
        A = get_matrix(name, scale).build_cached()
        for cluster_name, factory in _CLUSTERS.items():
            for n_nodes in node_counts:
                cluster = factory(n_nodes)
                nranks = ranks_for_mode(cluster, mode)
                if nranks > A.nrows:
                    continue
                rank_node = [p.node for p in plan_placement(cluster, mode)]
                halo = build_halo_plan(
                    A, partition_matrix(A, nranks), with_matrices=False
                )
                cmp = compare_plans(
                    build_comm_plan(halo, rank_node, "direct"),
                    build_comm_plan(halo, rank_node, "node-aware"),
                )
                rows.append(
                    PlanStatRow(
                        matrix=name,
                        cluster=cluster_name,
                        mode=mode,
                        n_nodes=n_nodes,
                        n_ranks=nranks,
                        direct_internode_messages=cmp.direct.internode_messages,
                        node_aware_internode_messages=cmp.node_aware.internode_messages,
                        direct_injected_mb=cmp.direct.internode_bytes / 1e6,
                        node_aware_injected_mb=cmp.node_aware.internode_bytes / 1e6,
                        duplicate_factor=cmp.direct.duplicate_factor,
                        predicted_speedup=cmp.predicted_speedup,
                    )
                )
    return rows


def run_comm_plans(
    scale: str = "small",
    *,
    matrices: tuple[str, ...] = ("HMeP", "sAMG"),
    node_counts: tuple[int, ...] = (2, 4, 8),
    mode: str = "per-ld",
    sweep_nodes: tuple[int, ...] = (1, 2, 4, 8),
    sweep_matrix: str = "HMeP",
    sweep_scheme: str = "no_overlap",
    iterations: int = 2,
    include_sweep: bool = True,
) -> CommPlansResult:
    """Account for both plans everywhere; simulate the torus sweep.

    The sweep runs *sweep_matrix* in pure-MPI mode (``per-core``) on the
    Cray torus with :data:`TORUS_MESSAGE_OVERHEAD` per message, under
    both plan kinds.  ``include_sweep=False`` skips the (comparatively
    slow) simulations and returns the accounting tables only.
    """
    result = CommPlansResult(
        stat_rows=_stat_rows(scale, matrices, node_counts, mode),
        sweep_matrix=sweep_matrix,
        sweep_scheme=sweep_scheme,
    )
    if not include_sweep:
        return result
    A = get_matrix(sweep_matrix, scale).build_cached()
    kappa = kappa_for(sweep_matrix)
    for n_nodes in sweep_nodes:
        cluster = cray_xe6_cluster(n_nodes, message_overhead=TORUS_MESSAGE_OVERHEAD)
        nranks = ranks_for_mode(cluster, "per-core")
        if nranks > A.nrows:
            continue
        gflops = {}
        for kind in ("direct", "node-aware"):
            r = simulate_spmvm(
                A, cluster,
                mode="per-core",
                scheme=sweep_scheme,
                kappa=kappa,
                comm_plan=kind,
                iterations=iterations,
                eager_threshold=REDUCED_EAGER_THRESHOLD,
            )
            gflops[kind] = r.gflops
        result.sweep.append(
            PlanScalingPoint(
                n_nodes=n_nodes,
                n_ranks=nranks,
                direct_gflops=gflops["direct"],
                node_aware_gflops=gflops["node-aware"],
            )
        )
    return result
