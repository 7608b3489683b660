"""Workload study: scheduling, placement, and contention under job streams.

Three questions, each answered on the machine configuration that can
actually isolate it:

1. **Scheduling** (FCFS vs EASY backfilling) is compared on the
   Westmere *fat tree*: with exclusively-allocated nodes and a
   nonblocking network, job runtimes are policy-independent there, so
   utilisation differences are purely packing differences — the quantity
   a scheduler controls.  On the reference trace EASY backfills the
   short narrow jobs into the nodes the head-blocked wide job cannot
   use, and its utilisation is strictly higher (asserted by the CLI
   smoke mode and the test suite).
2. **Placement** (first-fit vs random vs node-aware) is compared on the
   Cray *torus* under heavy background load
   (:data:`PLACEMENT_BACKGROUND_LOAD`): torus demand is bytes × hops on
   a shared link pool, so scattering a job's ranks (random) multiplies
   its pressure on every co-running job, while node-aware's compact
   allocations keep hop counts — and p99 response latency — down.
3. **Contention**: one communication-heavy job is timed alone and then
   co-running with an identical twin on a small, heavily loaded torus
   (:data:`CONTENTION_BACKGROUND_LOAD`); each co-running copy must
   observe measurably lower effective bandwidth than the solo run —
   the direct evidence that jobs in the cluster engine share wires
   rather than being timed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.presets import cray_xe6_cluster, westmere_cluster
from repro.machine.topology import ClusterSpec
from repro.util import Table
from repro.workload.engine import JobRecord, WorkloadResult, run_workload
from repro.workload.report import compare_policies, policy_table, render_report
from repro.workload.streams import Job, estimate_walltime, reference_trace, synthetic_stream

__all__ = [
    "REFERENCE_N_NODES",
    "PLACEMENT_BACKGROUND_LOAD",
    "CONTENTION_BACKGROUND_LOAD",
    "scheduling_cluster",
    "placement_cluster",
    "contention_cluster",
    "contention_job",
    "run_contention_probe",
    "WorkloadStudy",
    "run_workload_study",
    "smoke_checks",
]

#: Nodes of the reference machine the trace was crafted for.
REFERENCE_N_NODES = 16

#: Torus background load of the placement study.  High enough that the
#: shared link pool is the bottleneck during the reference trace's
#: communication band — the regime where rank scattering hurts.
PLACEMENT_BACKGROUND_LOAD = 0.85

#: Torus background load of the contention probe (deliberately extreme:
#: the remaining pool is comparable to one job's halo demand).
CONTENTION_BACKGROUND_LOAD = 0.95


def scheduling_cluster(n_nodes: int = REFERENCE_N_NODES) -> ClusterSpec:
    """Fat-tree machine for scheduler comparisons (no cross-job network
    contention with exclusive nodes → policy-independent runtimes)."""
    return westmere_cluster(n_nodes)


def placement_cluster(n_nodes: int = REFERENCE_N_NODES) -> ClusterSpec:
    """Loaded-torus machine for placement comparisons."""
    return cray_xe6_cluster(n_nodes, background_load=PLACEMENT_BACKGROUND_LOAD)


def contention_cluster(n_nodes: int = 4) -> ClusterSpec:
    """Small, heavily loaded torus for the link-sharing probe."""
    return cray_xe6_cluster(n_nodes, background_load=CONTENTION_BACKGROUND_LOAD)


def contention_job(job_id: int, *, submit: float = 0.0) -> Job:
    """One communication-heavy CG job (halo ≈ whole vector, 24 sweeps)."""
    return Job(
        job_id=job_id,
        name=f"contender-{job_id}",
        solver="cg",
        submit=submit,
        n_nodes=2,
        nrows=2048,
        nnzr=12.0,
        iterations=24,
        walltime=estimate_walltime("cg", 2048, 12.0, 24, 2, overestimate=2.0),
        seed=42 + job_id,
    )


def run_contention_probe() -> tuple[JobRecord, list[JobRecord]]:
    """Time the contention job alone, then two copies co-running.

    Returns ``(alone, [co_0, co_1])``.  Both runs use first-fit
    placement on :func:`contention_cluster`, so the two jobs occupy
    disjoint node pairs and meet only on the shared torus link pool —
    any effective-bandwidth loss is pure link contention.
    """
    alone = run_workload(
        [contention_job(0)], contention_cluster(), scheduler="fcfs", placement="first-fit"
    )
    shared = run_workload(
        [contention_job(0), contention_job(1)],
        contention_cluster(),
        scheduler="fcfs",
        placement="first-fit",
    )
    return alone.records[0], list(shared.records)


@dataclass
class WorkloadStudy:
    """Everything the ``repro workload`` experiment produces."""

    stream: WorkloadResult
    scheduling: dict[tuple[str, str], WorkloadResult]
    placement: dict[tuple[str, str], WorkloadResult]
    contention_alone: JobRecord
    contention_shared: list[JobRecord] = field(default_factory=list)

    def scheduling_table(self) -> Table:
        """FCFS vs EASY on the fat tree (reference trace)."""
        t = policy_table(self.scheduling)
        t.title = "scheduler comparison (reference trace, fat tree — fixed runtimes)"
        return t

    def placement_table(self) -> Table:
        """Placement policies on the loaded torus (reference trace)."""
        t = policy_table(self.placement)
        t.title = (
            "placement comparison (reference trace, torus at "
            f"{PLACEMENT_BACKGROUND_LOAD:.0%} background load)"
        )
        return t

    def contention_table(self) -> Table:
        """Solo vs co-running effective bandwidth of the probe job."""
        t = Table(
            ["configuration", "runtime ms", "effective GB/s", "vs alone"],
            title=(
                "torus link contention (two co-running jobs, "
                f"{CONTENTION_BACKGROUND_LOAD:.0%} background load)"
            ),
            float_fmt=".3f",
        )
        solo_bw = self.contention_alone.effective_bandwidth
        t.add_row(["alone", self.contention_alone.runtime * 1e3, solo_bw / 1e9, 1.0])
        for r in self.contention_shared:
            t.add_row(
                [
                    f"co-running ({r.job.name})",
                    r.runtime * 1e3,
                    r.effective_bandwidth / 1e9,
                    r.effective_bandwidth / solo_bw if solo_bw else 0.0,
                ]
            )
        return t

    def render(self) -> str:
        """The full study as text."""
        return "\n\n".join(
            [
                render_report(self.stream),
                self.scheduling_table().render(),
                self.placement_table().render(),
                self.contention_table().render(),
            ]
        )


def smoke_checks(study: WorkloadStudy) -> list[tuple[str, bool, str]]:
    """The subsystem's acceptance checks as ``(name, passed, detail)`` rows.

    The ``repro workload --smoke`` CI gate; the test suite
    (``tests/test_workload_engine.py``) asserts the same properties on
    the same reference configurations, so the two agree.
    """
    checks: list[tuple[str, bool, str]] = []

    fcfs = study.scheduling[("fcfs", "first-fit")]
    easy = study.scheduling[("easy", "first-fit")]
    u_f, u_e = fcfs.utilisation(), easy.utilisation()
    checks.append(
        (
            "easy-backfilling-utilisation",
            u_e > u_f,
            f"EASY {u_e:.4f} vs FCFS {u_f:.4f} (fat tree, reference trace)",
        )
    )

    rand = study.placement[("easy", "random")]
    aware = study.placement[("easy", "node-aware")]
    p99_r = rand.summary()["p99"]
    p99_a = aware.summary()["p99"]
    checks.append(
        (
            "node-aware-p99-latency",
            p99_a < p99_r,
            f"node-aware {p99_a * 1e3:.3f} ms vs random {p99_r * 1e3:.3f} ms (loaded torus)",
        )
    )
    b_r, b_a = rand.interconnect_bytes(), aware.interconnect_bytes()
    checks.append(
        (
            "node-aware-wire-bytes",
            b_a <= b_r,
            f"node-aware {b_a / 1e6:.2f} MB vs random {b_r / 1e6:.2f} MB",
        )
    )

    solo = study.contention_alone.effective_bandwidth
    shared = [r.effective_bandwidth for r in study.contention_shared]
    checks.append(
        (
            "shared-link-contention",
            bool(shared) and all(bw < solo for bw in shared),
            f"alone {solo / 1e9:.3f} GB/s vs co-running "
            + " / ".join(f"{bw / 1e9:.3f}" for bw in shared)
            + " GB/s",
        )
    )
    return checks


def run_workload_study(
    *,
    n_jobs: int = 100,
    seed: int = 0,
    arrival: str = "poisson",
    rate: float = 1.0e5,
    jobs: list[Job] | None = None,
) -> WorkloadStudy:
    """Run the headline stream plus the three reference comparisons.

    ``jobs`` overrides the synthetic headline stream (trace replay); the
    scheduling/placement/contention parts always use the fixed reference
    trace and probe so their guard properties are deterministic.
    """
    if jobs is None:
        jobs = synthetic_stream(n_jobs, seed=seed, arrival=arrival, rate=rate)
    stream = run_workload(
        jobs, placement_cluster(), scheduler="easy", placement="node-aware", seed=seed
    )
    trace = reference_trace()
    scheduling = compare_policies(
        trace, scheduling_cluster, schedulers=("fcfs", "easy"), placements=("first-fit",)
    )
    placement = compare_policies(
        trace,
        placement_cluster,
        schedulers=("easy",),
        placements=("first-fit", "random", "node-aware"),
        seed=11,
    )
    alone, shared = run_contention_probe()
    return WorkloadStudy(
        stream=stream,
        scheduling=scheduling,
        placement=placement,
        contention_alone=alone,
        contention_shared=shared,
    )
