"""Fig. 4: schematic timeline views of the three kernel versions.

The paper draws these by hand; we generate them from actual simulator
traces of a two-node run, one Gantt chart per scheme.  The task-mode
chart shows the separate communication actor overlapping the compute
threads' local spMVM; the naive-overlap chart shows the Waitall block
where the transfer really happens.

Beyond the pictures, the trace's MPI instants let us *measure* the
overlap: ``rendezvous_bytes_during_local`` counts, per scheme, the
rendezvous bytes that moved while one of the message's own endpoints was
executing its local spMVM.  With 2010-era progress semantics that number
is exactly 0 for both vector modes (the progress gate is closed while
the ranks compute) and equals the full per-sweep halo volume for task
mode — the paper's Sect. 3 claim, validated from trace data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.halo import build_halo_plan
from repro.core.runner import simulate_from_plan
from repro.experiments.calibration import KAPPA, REDUCED_EAGER_THRESHOLD
from repro.frame.trace import TraceRecorder
from repro.machine.affinity import ranks_for_mode
from repro.machine.presets import westmere_cluster
from repro.matrices.collection import get_matrix
from repro.obs import overlap_bytes_with_phase, transfer_segments
from repro.program.ir import SIM_PHASE_LABELS
from repro.sparse.partition import partition_matrix

__all__ = ["Fig4Result", "run_fig4"]

#: The ops a chart draws: compute and the Waitall the transfer hides in.
_DRAWN_OPS = frozenset({*SIM_PHASE_LABELS, "WAITALL"})


@dataclass
class Fig4Result:
    """One rendered timeline per scheme plus the phase totals."""

    charts: dict[str, str]
    makespans: dict[str, float]
    overlap_fraction: dict[str, float]
    #: Rendezvous bytes moved while an endpoint ran its local spMVM.
    rendezvous_bytes_during_local: dict[str, float] = field(default_factory=dict)
    #: Total rendezvous bytes per sweep (denominator for the above).
    rendezvous_bytes_total: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """All three Gantt charts."""
        parts = []
        for scheme, chart in self.charts.items():
            parts.append(chart)
            line = (
                f"   makespan {self.makespans[scheme] * 1e3:.3f} ms, "
                f"comm/compute overlap {self.overlap_fraction[scheme]:.0%}"
            )
            if scheme in self.rendezvous_bytes_during_local:
                line += (
                    f", rendezvous bytes during local spMVM "
                    f"{self.rendezvous_bytes_during_local[scheme]:.0f}"
                    f"/{self.rendezvous_bytes_total.get(scheme, 0.0):.0f} B"
                )
            parts.append(line + "\n")
        return "\n".join(parts)


def run_fig4(
    scale: str = "small", n_nodes: int = 2, *, async_progress: bool = False
) -> Fig4Result:
    """Trace one MVM of each scheme on a small two-node configuration."""
    A = get_matrix("HMeP", scale).build_cached()
    cluster = westmere_cluster(n_nodes)
    nranks = ranks_for_mode(cluster, "per-ld")
    plan = build_halo_plan(A, partition_matrix(A, nranks), with_matrices=False)
    charts: dict[str, str] = {}
    makespans: dict[str, float] = {}
    overlap: dict[str, float] = {}
    rdv_during_local: dict[str, float] = {}
    rdv_total: dict[str, float] = {}
    titles = {
        "no_overlap": "(a) Vector mode, no overlap",
        "naive_overlap": "(b) Vector mode, naive overlap (nonblocking MPI)",
        "task_mode": "(c) Task mode, explicit overlap (dedicated comm thread)",
    }
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        r = simulate_from_plan(
            plan,
            cluster,
            mode="per-ld",
            scheme=scheme,
            kappa=KAPPA["HMeP"],
            iterations=1,
            eager_threshold=REDUCED_EAGER_THRESHOLD,
            async_progress=async_progress,
            trace=True,
        )
        assert r.trace is not None
        rdv_during_local[scheme] = overlap_bytes_with_phase(r.trace, "local spMVM")
        rdv_total[scheme] = sum(
            s.nbytes for s in transfer_segments(r.trace, protocol="rendezvous")
        )
        # restrict the chart to rank 0's actors for legibility
        rank0 = [
            s for s in r.trace.spans
            if s.actor in ("rank0", "rank0:comm") and s.args["op"] in _DRAWN_OPS
        ]
        charts[scheme] = TraceRecorder(rank0).render_gantt(title=titles[scheme])
        makespans[scheme] = r.seconds_per_mvm
        # overlap: time the comm actor's Waitall shares with compute work
        comm_ivs = [s for s in rank0 if s.label == "MPI_Waitall"]
        compute_ivs = [s for s in rank0 if s.actor == "rank0" and "spMVM" in s.label]
        shared = 0.0
        total_comm = sum(s.duration for s in comm_ivs) or 1e-300
        for c in comm_ivs:
            for w in compute_ivs:
                shared += max(0.0, min(c.end, w.end) - max(c.start, w.start))
        overlap[scheme] = min(1.0, shared / total_comm)
    return Fig4Result(
        charts=charts,
        makespans=makespans,
        overlap_fraction=overlap,
        rendezvous_bytes_during_local=rdv_during_local,
        rendezvous_bytes_total=rdv_total,
    )
