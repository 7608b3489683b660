"""Cluster-scale workload simulation: job streams, scheduling, contention.

The paper measures one solver occupying one machine; this package asks
the capacity-planning question behind it — what throughput and latency
does the simulated cluster sustain when *many* users submit CG, Lanczos,
and spMVM jobs concurrently onto shared nodes and a shared network?

* :mod:`repro.workload.streams` — seeded synthetic arrival streams
  (Poisson / heavy-tailed), the ``repro-trace/1`` JSON trace format and
  the documented reference trace;
* :mod:`repro.workload.scheduler` — FCFS, EASY backfilling, and the
  placement policies (first-fit / random / node-aware);
* :mod:`repro.workload.engine` — the cluster engine running every job's
  ranks on one shared :class:`~repro.frame.resources.FlowNetwork`, so
  co-running jobs genuinely contend for links, NICs, and memory buses;
* :mod:`repro.workload.report` — reports, policy-comparison tables, and
  per-job Chrome traces via :mod:`repro.obs`.
"""

from repro.workload.engine import (
    BSLD_TAU,
    ClusterEngine,
    JobRecord,
    WorkloadResult,
    run_workload,
)
from repro.workload.report import (
    compare_policies,
    export_job_trace,
    policy_table,
    render_report,
)
from repro.workload.scheduler import (
    PLACEMENT_POLICIES,
    SCHEDULER_POLICIES,
    EasyBackfillScheduler,
    FCFSScheduler,
    RunningJob,
    allocation_hop_sum,
    make_scheduler,
    place_job,
)
from repro.workload.streams import (
    ARRIVAL_KINDS,
    DOTS_PER_ITERATION,
    SOLVERS,
    TRACE_SCHEMA,
    Job,
    dump_trace,
    estimate_walltime,
    jobs_from_dict,
    jobs_to_dict,
    load_trace,
    reference_trace,
    synthetic_stream,
)

__all__ = [
    "TRACE_SCHEMA",
    "SOLVERS",
    "DOTS_PER_ITERATION",
    "ARRIVAL_KINDS",
    "Job",
    "estimate_walltime",
    "synthetic_stream",
    "reference_trace",
    "jobs_to_dict",
    "jobs_from_dict",
    "dump_trace",
    "load_trace",
    "SCHEDULER_POLICIES",
    "PLACEMENT_POLICIES",
    "RunningJob",
    "FCFSScheduler",
    "EasyBackfillScheduler",
    "make_scheduler",
    "place_job",
    "allocation_hop_sum",
    "BSLD_TAU",
    "JobRecord",
    "WorkloadResult",
    "ClusterEngine",
    "run_workload",
    "compare_policies",
    "policy_table",
    "render_report",
    "export_job_trace",
]
