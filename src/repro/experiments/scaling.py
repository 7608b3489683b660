"""Shared strong-scaling harness behind Figs. 5 and 6.

Sweeps node counts × hybrid modes × schemes for one matrix on the
Westmere/QDR cluster (plus the best-variant Cray XE6 reference curve)
and packages the series with the efficiency bookkeeping the paper
annotates (50 % efficiency points, best single-node baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.efficiency import fifty_percent_point, parallel_efficiency
from repro.core.halo import build_halo_plan
from repro.core.runner import SimulationResult, simulate_from_plan
from repro.core.schemes import SIM_SCHEMES
from repro.experiments.calibration import DEFAULT_NODE_COUNTS, REDUCED_EAGER_THRESHOLD
from repro.machine.affinity import ranks_for_mode
from repro.machine.presets import cray_xe6_cluster, westmere_cluster
from repro.machine.topology import ClusterSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import partition_matrix
from repro.util import Table, ascii_chart

__all__ = ["ScalingPoint", "ScalingStudy", "run_scaling_study"]

_MODES = ("per-core", "per-ld", "per-node")


@dataclass(frozen=True)
class ScalingPoint:
    """One (mode, scheme, nodes) measurement."""

    mode: str
    scheme: str
    n_nodes: int
    gflops: float
    seconds_per_mvm: float
    comm_bytes: float

    @property
    def key(self) -> tuple[str, str]:
        """(mode, scheme) series identifier."""
        return (self.mode, self.scheme)


@dataclass
class ScalingStudy:
    """The full sweep for one matrix."""

    matrix_name: str
    nnz: int
    points: list[ScalingPoint] = field(default_factory=list)
    cray_best: list[ScalingPoint] = field(default_factory=list)

    def series(self, mode: str, scheme: str) -> tuple[list[int], list[float]]:
        """(nodes, GFlop/s) of one curve, node-count order."""
        pts = sorted(
            (p for p in self.points if p.mode == mode and p.scheme == scheme),
            key=lambda p: p.n_nodes,
        )
        return [p.n_nodes for p in pts], [p.gflops for p in pts]

    def best_single_node(self) -> float:
        """Best 1-node performance over all variants (the efficiency baseline)."""
        singles = [p.gflops for p in self.points if p.n_nodes == 1]
        if not singles:
            raise ValueError("study contains no single-node points")
        return max(singles)

    def gflops_at(self, mode: str, scheme: str, n_nodes: int) -> float:
        """Performance of one configuration (KeyError if absent)."""
        for p in self.points:
            if p.mode == mode and p.scheme == scheme and p.n_nodes == n_nodes:
                return p.gflops
        raise KeyError((mode, scheme, n_nodes))

    def fifty_percent(self, mode: str, scheme: str) -> float | None:
        """50 % parallel-efficiency point of one curve."""
        nodes, gf = self.series(mode, scheme)
        return fifty_percent_point(nodes, gf, self.best_single_node())

    def render(self) -> str:
        """Three panel tables (one per hybrid mode) plus the charts."""
        base = self.best_single_node()
        parts = []
        for mode in _MODES:
            t = Table(
                ["scheme", "nodes", "GFlop/s", "efficiency", "50% point"],
                title=f"--- one MPI process {mode.replace('per-', 'per ')} ---",
                float_fmt=".2f",
            )
            chart_series = {}
            for scheme in SIM_SCHEMES:
                nodes, gf = self.series(mode, scheme)
                if not nodes:
                    continue
                fp = self.fifty_percent(mode, scheme)
                for n, g in zip(nodes, gf):
                    t.add_row(
                        [
                            scheme,
                            n,
                            g,
                            parallel_efficiency(g, n, base),
                            fp if fp is not None else float("nan"),
                        ]
                    )
                chart_series[scheme] = list(zip(map(float, nodes), gf))
            parts.append(t.render())
            parts.append(
                ascii_chart(
                    chart_series,
                    title=f"{self.matrix_name}: GFlop/s vs nodes ({mode})",
                    xlabel="nodes",
                    ylabel="GFlop/s",
                    height=14,
                    y_min=0.0,
                )
            )
        if self.cray_best:
            t = Table(
                ["nodes", "GFlop/s", "variant"],
                title="--- best variant on Cray XE6 (reference) ---",
                float_fmt=".2f",
            )
            for p in sorted(self.cray_best, key=lambda p: p.n_nodes):
                t.add_row([p.n_nodes, p.gflops, f"{p.scheme}/{p.mode}"])
            parts.append(t.render())
        return "\n\n".join(parts)


def _simulate(
    A: CSRMatrix,
    cluster: ClusterSpec,
    mode: str,
    scheme: str,
    kappa: float,
    *,
    iterations: int,
    eager_threshold: int,
    plan_cache: dict,
) -> SimulationResult:
    nranks = ranks_for_mode(cluster, mode)
    key = (cluster.name, nranks)
    plan = plan_cache.get(key)
    if plan is None:
        plan = build_halo_plan(A, partition_matrix(A, nranks), with_matrices=False)
        plan_cache[key] = plan
    return simulate_from_plan(
        plan,
        cluster,
        mode=mode,
        scheme=scheme,
        kappa=kappa,
        iterations=iterations,
        eager_threshold=eager_threshold,
    )


def run_scaling_study(
    A: CSRMatrix,
    matrix_name: str,
    kappa: float,
    *,
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    modes: tuple[str, ...] = _MODES,
    schemes: tuple[str, ...] = SIM_SCHEMES,
    include_cray: bool = True,
    eager_threshold: int = REDUCED_EAGER_THRESHOLD,
    max_ranks: int | None = None,
) -> ScalingStudy:
    """Run the full Figs. 5/6 sweep for one matrix.

    ``max_ranks`` skips configurations whose rank count exceeds it (the
    per-core panel explodes to 384 ranks at 32 nodes; tests cap this).
    Iteration counts adapt: large rank counts run a single steady-state
    sweep, small ones two.
    """
    study = ScalingStudy(matrix_name=matrix_name, nnz=A.nnz)
    plan_cache: dict = {}
    for n_nodes in node_counts:
        cluster = westmere_cluster(n_nodes)
        for mode in modes:
            nranks = ranks_for_mode(cluster, mode)
            if max_ranks is not None and nranks > max_ranks:
                continue
            if nranks > A.nrows:
                continue
            iterations = 1 if nranks >= 128 else 2
            for scheme in schemes:
                r = _simulate(
                    A, cluster, mode, scheme, kappa,
                    iterations=iterations,
                    eager_threshold=eager_threshold,
                    plan_cache=plan_cache,
                )
                study.points.append(
                    ScalingPoint(
                        mode=mode,
                        scheme=scheme,
                        n_nodes=n_nodes,
                        gflops=r.gflops,
                        seconds_per_mvm=r.seconds_per_mvm,
                        comm_bytes=r.comm_bytes_per_mvm,
                    )
                )
        if include_cray:
            cray = cray_xe6_cluster(n_nodes)
            best: ScalingPoint | None = None
            # the Cray has no SMT: task mode uses a dedicated core; the
            # reference curve is the best of the hybrid variants there
            for mode in ("per-ld", "per-node"):
                nranks = ranks_for_mode(cray, mode)
                if max_ranks is not None and nranks > max_ranks:
                    continue
                if nranks > A.nrows:
                    continue
                for scheme in ("no_overlap", "task_mode"):
                    r = _simulate(
                        A, cray, mode, scheme, kappa,
                        iterations=2,
                        eager_threshold=eager_threshold,
                        plan_cache=plan_cache,
                    )
                    p = ScalingPoint(
                        mode=mode,
                        scheme=scheme,
                        n_nodes=n_nodes,
                        gflops=r.gflops,
                        seconds_per_mvm=r.seconds_per_mvm,
                        comm_bytes=r.comm_bytes_per_mvm,
                    )
                    if best is None or p.gflops > best.gflops:
                        best = p
            if best is not None:
                study.cray_best.append(best)
    if not math.isfinite(study.best_single_node()):
        raise RuntimeError("scaling study produced no finite single-node baseline")
    return study
