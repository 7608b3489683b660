"""Internode communication volume vs node count (the knee explained).

Sect. 4 attributes the universal scalability drop beyond ~6 nodes to "a
strong decrease in overall internode communication volume when the
number of nodes is small" — i.e. at 2-6 nodes the halo volume is still
ramping up steeply with every node added, and once it saturates the
full communication cost is felt.  This experiment computes, from the
real partitioned matrices, the total and *internode* halo volumes and
message counts per MVM as functions of the node count, for both
matrices and all three hybrid modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.plan import build_comm_plan
from repro.comm.stats import plan_stats
from repro.core.halo import build_halo_plan
from repro.machine.affinity import ranks_for_mode
from repro.machine.presets import westmere_cluster
from repro.matrices.collection import get_matrix
from repro.sparse.partition import partition_matrix
from repro.util import Table

__all__ = ["VolumeRow", "CommVolumeResult", "run_comm_volume"]


@dataclass(frozen=True)
class VolumeRow:
    """One (matrix, mode, nodes) communication-volume measurement."""

    matrix: str
    mode: str
    n_nodes: int
    n_ranks: int
    total_mb: float
    internode_mb: float
    messages: int
    internode_messages: int


@dataclass
class CommVolumeResult:
    """The full sweep."""

    rows: list[VolumeRow] = field(default_factory=list)

    def series(self, matrix: str, mode: str) -> list[VolumeRow]:
        """All node counts of one (matrix, mode), ascending."""
        return sorted(
            (r for r in self.rows if r.matrix == matrix and r.mode == mode),
            key=lambda r: r.n_nodes,
        )

    def render(self) -> str:
        """The volume table."""
        t = Table(
            ["matrix", "mode", "nodes", "ranks", "total MB", "internode MB",
             "msgs", "internode msgs"],
            title="communication volume per MVM vs node count (explains the Fig. 5 knee)",
            float_fmt=".2f",
        )
        for r in self.rows:
            t.add_row([r.matrix, r.mode, r.n_nodes, r.n_ranks, r.total_mb,
                       r.internode_mb, r.messages, r.internode_messages])
        return t.render()


def run_comm_volume(
    scale: str = "small",
    *,
    node_counts: tuple[int, ...] = (1, 2, 4, 6, 8, 16, 32),
    matrices: tuple[str, ...] = ("HMeP", "sAMG"),
    modes: tuple[str, ...] = ("per-ld",),
    max_ranks: int | None = None,
) -> CommVolumeResult:
    """Compute halo volumes for every (matrix, mode, node count)."""
    result = CommVolumeResult()
    for name in matrices:
        A = get_matrix(name, scale).build_cached()
        for mode in modes:
            for n_nodes in node_counts:
                cluster = westmere_cluster(n_nodes)
                nranks = ranks_for_mode(cluster, mode)
                if max_ranks is not None and nranks > max_ranks:
                    continue
                if nranks > A.nrows:
                    continue
                halo = build_halo_plan(
                    A, partition_matrix(A, nranks), with_matrices=False
                )
                # the direct exchange on a rank-major placement
                ranks_per_node = nranks // n_nodes
                rank_node = [r // ranks_per_node for r in range(nranks)]
                stats = plan_stats(build_comm_plan(halo, rank_node, "direct"))
                result.rows.append(
                    VolumeRow(
                        matrix=name,
                        mode=mode,
                        n_nodes=n_nodes,
                        n_ranks=nranks,
                        total_mb=(stats.internode_bytes + stats.intranode_bytes) / 1e6,
                        internode_mb=stats.internode_bytes / 1e6,
                        messages=stats.messages,
                        internode_messages=stats.internode_messages,
                    )
                )
    return result
