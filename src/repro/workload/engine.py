"""The cluster engine: many solver jobs on one shared `FlowNetwork`.

This is what distinguishes the workload layer from running
:func:`repro.core.simulate_spmvm` once per job and adding up the times:
every job's compute flows and halo/allreduce messages live on the *same*
:class:`~repro.frame.resources.FlowNetwork`, so co-running jobs contend
for torus link pools, NIC injection, and memory buses exactly the way
the paper's background-load observation describes (Sect. 4) — a job's
runtime depends on what else the machine is doing.

Lifecycle of one job (the accasim-style event chain):

    submit ── arrival process enqueues it with the scheduler
    start  ── a dispatch pass finds room, placement picks the nodes,
              one simulated rank per allocated node is spawned
    run    ── each rank executes the job's sweep program
              (:func:`repro.program.sweep_process`, the same interpreter
              the single-job simulator uses) plus the solver's
              dot-product allreduces, with a per-job
              :class:`~repro.smpi.api.SimMPI` instance on the shared
              network (per-instance matching: jobs can never steal each
              other's messages, but their flows share every wire)
    finish ── a watcher frees the nodes and triggers the next dispatch

Nodes are allocated exclusively (one rank per node spanning all its
locality domains, the paper's per-node hybrid mode), so contention is
purely a *network* effect — which is the quantity the placement
policies control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from repro.comm.plan import build_comm_plan
from repro.comm.sim import SimExchange
from repro.core.costs import phase_costs
from repro.core.halo import build_halo_plan
from repro.core.schemes import SIM_SCHEMES, RankContext
from repro.frame.core import Simulator
from repro.frame.resources import FlowNetwork, ResourceStats
from repro.frame.trace import TraceRecorder
from repro.machine.affinity import RankPlacement
from repro.machine.topology import ClusterSpec
from repro.matrices.random_sparse import random_sparse
from repro.obs.latency import bounded_slowdown, latency_summary, throughput
from repro.program.build import build_sweep
from repro.program.sim import sweep_process
from repro.smpi.api import MPIConfig, SimMPI
from repro.sparse.partition import partition_matrix
from repro.util import check_in, check_positive_int
from repro.workload.scheduler import (
    PLACEMENT_POLICIES,
    RunningJob,
    allocation_hop_sum,
    make_scheduler,
    place_job,
)
from repro.workload.streams import Job

__all__ = ["JobRecord", "WorkloadResult", "ClusterEngine", "run_workload", "BSLD_TAU"]

#: Interactivity threshold of the bounded-slowdown metric, in simulated
#: seconds.  Generator jobs run for tens of microseconds to milliseconds,
#: so the conventional 10 s threshold would flatten everything to 1.
BSLD_TAU = 1.0e-4


@dataclass(frozen=True)
class JobRecord:
    """What the engine measured for one completed job."""

    job: Job
    nodes: tuple[int, ...]
    start: float
    end: float
    bytes_transferred: float
    messages_sent: int
    hop_sum: float

    @property
    def wait(self) -> float:
        """Queue time: submit → start."""
        return self.start - self.job.submit

    @property
    def runtime(self) -> float:
        """Execution time: start → finish."""
        return self.end - self.start

    @property
    def response(self) -> float:
        """Response latency: submit → finish (what the user feels)."""
        return self.end - self.job.submit

    @property
    def slowdown(self) -> float:
        """Bounded slowdown at the workload timescale."""
        return bounded_slowdown(self.response, self.runtime, tau=BSLD_TAU)

    @property
    def effective_bandwidth(self) -> float:
        """Payload bytes the job moved per second of its runtime.

        The job's communication volume is fixed by its halo structure,
        so under contention the same bytes take longer — this ratio is
        the per-job view of shared-network interference (the contention
        acceptance test compares it alone vs co-running).
        """
        return self.bytes_transferred / self.runtime if self.runtime > 0 else 0.0


@dataclass
class WorkloadResult:
    """Outcome of one workload run (all jobs completed)."""

    scheduler: str
    placement: str
    n_nodes: int
    cluster_name: str
    scheme: str
    records: list[JobRecord]
    makespan: float
    resource_stats: dict[object, ResourceStats]
    trace: TraceRecorder | None = None
    extras: dict = field(default_factory=dict)

    def utilisation(self) -> float:
        """Fraction of node-seconds spent running jobs over the makespan."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(r.runtime * r.job.n_nodes for r in self.records)
        return busy / (self.n_nodes * self.makespan)

    def per_node_utilisation(self) -> list[float]:
        """Busy fraction of each node over the makespan."""
        busy = [0.0] * self.n_nodes
        for r in self.records:
            for n in r.nodes:
                busy[n] += r.runtime
        if self.makespan <= 0:
            return busy
        return [b / self.makespan for b in busy]

    def interconnect_bytes(self) -> float:
        """Bytes moved over inter-node wires (hop-weighted on a torus).

        Sums the ``nic_*``/``torus_links`` resource counters — the
        quantity node-aware placement minimises (scattered ranks
        multiply torus demand by the hop count).
        """
        total = 0.0
        for key, stats in self.resource_stats.items():
            kind = key[0] if isinstance(key, tuple) else key
            if kind in ("nic_out", "nic_in", "torus_links"):
                total += stats.bytes_moved
        return total

    def summary(self) -> dict[str, float]:
        """The flat capacity-planning report.

        Response-latency percentiles, throughput, utilisation, mean
        wait, and mean/max bounded slowdown over all completed jobs.
        """
        if not self.records:
            raise ValueError("workload completed no jobs")
        out = latency_summary([r.response for r in self.records])
        out["throughput_jps"] = throughput(len(self.records), self.makespan)
        out["makespan"] = self.makespan
        out["utilisation"] = self.utilisation()
        out["mean_wait"] = sum(r.wait for r in self.records) / len(self.records)
        slowdowns = [r.slowdown for r in self.records]
        out["mean_slowdown"] = sum(slowdowns) / len(slowdowns)
        out["max_slowdown"] = max(slowdowns)
        out["interconnect_bytes"] = self.interconnect_bytes()
        out["hop_sum"] = sum(r.hop_sum for r in self.records)
        return out


class _JobTrace:
    """Shared-recorder adapter that prefixes every actor with the job.

    `RankContext` and `SimMPI` name actors ``rank{r}`` with job-local
    rank ids; on a shared recorder the jobs would collide.  This wrapper
    forwards to the real recorder with ``job{id}/`` prepended, which is
    exactly what the Chrome-trace exporter needs for per-job rows.
    """

    __slots__ = ("_base", "_prefix")

    def __init__(self, base: TraceRecorder, job_id: int) -> None:
        self._base = base
        self._prefix = f"job{job_id}/"

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    def record(self, actor: str, label: str, start: float, end: float) -> None:
        self._base.record(self._prefix + actor, label, start, end)

    def emit(self, time: float, actor: str, name: str, category: str = "", **args) -> None:
        self._base.emit(time, self._prefix + actor, name, category, **args)


class ClusterEngine:
    """Run a job stream on one simulated cluster with shared resources."""

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        scheduler: str = "easy",
        placement: str = "first-fit",
        scheme: str = "naive_overlap",
        kappa: float = 0.0,
        seed: int = 0,
        trace: bool = False,
        eager_threshold: int = 16384,
    ) -> None:
        check_in(scheme, SIM_SCHEMES, "scheme")
        if scheme == "task_mode":
            raise ValueError(
                "the workload engine runs vector-mode schemes (the comm-thread "
                "placement of task mode is a single-job concern); use "
                "'no_overlap' or 'naive_overlap'"
            )
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement!r}; expected one of {PLACEMENT_POLICIES}"
            )
        self.cluster = cluster
        self.scheme = scheme
        self.kappa = kappa
        self.placement = placement
        self.scheduler = make_scheduler(scheduler)
        self.sim = Simulator()
        resources = dict(cluster.network.resources(cluster.n_nodes))
        for n in range(cluster.n_nodes):
            for ld_idx, dom in enumerate(cluster.node.domains):
                resources[("membus", n, ld_idx)] = dom.spmv_curve.value
        self.net = FlowNetwork(self.sim, resources)
        self.recorder = TraceRecorder() if trace else None
        self._rng = np.random.default_rng(seed)
        self._eager_threshold = eager_threshold
        self._free: set[int] = set(range(cluster.n_nodes))
        self._running: dict[int, RunningJob] = {}
        self._records: list[JobRecord] = []
        self._expected = 0

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _build_placements(self, nodes: Sequence[int]) -> list[RankPlacement]:
        """One rank per allocated node, spanning all its locality domains."""
        cores = self.cluster.node.cores_per_domain()
        return [
            RankPlacement(
                rank=r,
                node=node,
                domains=tuple(
                    ((node, ld), cores) for ld in range(self.cluster.node.n_domains)
                ),
            )
            for r, node in enumerate(nodes)
        ]

    def _rank_proc(
        self, job: Job, ctx: RankContext, mpi: SimMPI, program
    ) -> Generator:
        """One rank's life: sweeps plus the solver's dot-product allreduces."""
        for it in range(job.iterations):
            yield from sweep_process(ctx, program, it)
            for _ in range(job.dots_per_iteration):
                yield from mpi.allreduce(ctx.rank)
            ctx.finish_times.append(ctx.sim.now)

    def _job_process(self, job: Job, nodes: tuple[int, ...]) -> Generator:
        """Build the job's distributed solve and run it to completion."""
        start = self.sim.now
        A = random_sparse(job.nrows, nnzr=job.nnzr, seed=job.seed, ensure_diagonal=True)
        nranks = len(nodes)
        partition = partition_matrix(A, nranks)
        plan = build_halo_plan(A, partition, with_matrices=False)
        placements = self._build_placements(nodes)
        rank_node = [p.node for p in placements]
        trace = _JobTrace(self.recorder, job.job_id) if self.recorder else None
        mpi = SimMPI(
            self.sim,
            self.net,
            self.cluster.network,
            rank_node=rank_node,
            config=MPIConfig(eager_threshold=self._eager_threshold),
            trace=trace,
            n_nodes=self.cluster.n_nodes,
        )
        cplan = build_comm_plan(plan, rank_node, kind="direct")
        program = build_sweep(self.scheme, block_k=job.block_k)
        procs = []
        for placement, halo in zip(placements, plan.ranks):
            ctx = RankContext(
                sim=self.sim,
                net=self.net,
                mpi=mpi,
                placement=placement,
                halo=halo,
                costs=phase_costs(halo, self.kappa, block_k=job.block_k),
                comm=SimExchange(cplan, placement.rank),
                trace=trace,
                block_k=job.block_k,
            )
            procs.append(
                self.sim.spawn(
                    self._rank_proc(job, ctx, mpi, program),
                    name=f"job{job.job_id}/rank{placement.rank}",
                )
            )
        yield self.sim.all_of([p.done for p in procs])
        self._records.append(
            JobRecord(
                job=job,
                nodes=nodes,
                start=start,
                end=self.sim.now,
                bytes_transferred=mpi.bytes_transferred,
                messages_sent=mpi.messages_sent,
                hop_sum=allocation_hop_sum(
                    nodes, self.cluster.network, self.cluster.n_nodes
                ),
            )
        )
        self._free.update(nodes)
        del self._running[job.job_id]
        self._dispatch()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """One scheduling pass: start whatever the policy allows now."""
        started = self.scheduler.schedule(
            self.sim.now, len(self._free), list(self._running.values())
        )
        for job in started:
            nodes = place_job(
                job,
                self._free,
                self.cluster.network,
                self.cluster.n_nodes,
                policy=self.placement,
                rng=self._rng,
            )
            self._free.difference_update(nodes)
            self._running[job.job_id] = RunningJob(job, self.sim.now, nodes)
            self.sim.spawn(self._job_process(job, nodes), name=f"job{job.job_id}")

    def _arrivals(self, jobs: Sequence[Job]) -> Generator:
        """Submit each job at its arrival instant, dispatching as we go."""
        for job in jobs:
            delay = job.submit - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.scheduler.enqueue(job)
            self._dispatch()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> WorkloadResult:
        """Run every job in *jobs* to completion and report."""
        if not jobs:
            raise ValueError("empty job stream")
        ordered = sorted(jobs, key=lambda j: (j.submit, j.job_id))
        for job in ordered:
            if job.n_nodes > self.cluster.n_nodes:
                raise ValueError(
                    f"job {job.job_id} needs {job.n_nodes} nodes but the "
                    f"cluster has {self.cluster.n_nodes}"
                )
        self._expected = len(ordered)
        self.sim.spawn(self._arrivals(ordered), name="arrivals")
        self.sim.run()
        if len(self._records) != self._expected:
            stuck = sorted(j.job_id for j in self.scheduler.pending())
            raise RuntimeError(
                f"workload deadlocked: {len(self._records)}/{self._expected} jobs "
                f"completed, queue holds {stuck}"
            )
        self._records.sort(key=lambda r: r.job.job_id)
        return WorkloadResult(
            scheduler=self.scheduler.policy,
            placement=self.placement,
            n_nodes=self.cluster.n_nodes,
            cluster_name=self.cluster.name,
            scheme=self.scheme,
            records=self._records,
            makespan=self.sim.now,
            resource_stats=self.net.resource_stats(),
            trace=self.recorder,
        )


def run_workload(
    jobs: Sequence[Job],
    cluster: ClusterSpec,
    *,
    scheduler: str = "easy",
    placement: str = "first-fit",
    scheme: str = "naive_overlap",
    kappa: float = 0.0,
    seed: int = 0,
    trace: bool = False,
) -> WorkloadResult:
    """Convenience wrapper: build a :class:`ClusterEngine` and run *jobs*."""
    check_positive_int(len(jobs), "len(jobs)")
    engine = ClusterEngine(
        cluster,
        scheduler=scheduler,
        placement=placement,
        scheme=scheme,
        kappa=kappa,
        seed=seed,
        trace=trace,
    )
    return engine.run(jobs)
