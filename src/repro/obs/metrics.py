"""Flat metrics extraction from one simulation run.

One ``{name: value}`` dict per :class:`~repro.core.runner.SimulationResult`
— the shape every metrics backend (Prometheus exposition, CSV columns,
regression-test assertions) can ingest without schema negotiation.

Naming convention: dotted lowercase paths.  ``sim.*`` for run-level
figures, ``mpi.*`` for counts of the trace's MPI instants, ``omp.*``
for its ``OMP_BARRIER`` spans, ``resource.<class>.*`` for utilization
aggregated over all resources of one class (``membus``, ``nic_out``,
``nic_in``, ``intra``, ``torus_links``).
"""

from __future__ import annotations

from collections import Counter

from repro.comm.plan import PHASES
from repro.core.runner import SimulationResult
from repro.frame.trace import TraceRecorder

__all__ = ["simulation_metrics", "comm_phase_messages", "per_op_costs"]

#: MPI instant names folded into ``mpi.<name>`` counters.
_MPI_EVENT_NAMES = (
    "msg_posted",
    "msg_matched",
    "wire_started",
    "msg_gated",
    "msg_resumed",
    "msg_completed",
    "gate_open",
    "gate_close",
)


def comm_phase_messages(trace: TraceRecorder) -> dict[str, int]:
    """Posted *send* counts per communication-plan phase.

    Messages posted without a ``phase`` label (the legacy per-peer
    exchange) count as ``direct``, so direct-plan and pre-plan traces
    report identically.  Keys cover all of :data:`repro.comm.plan.PHASES`.
    """
    counts = Counter(
        ev.args.get("phase", "direct")
        for ev in trace.events
        if ev.name == "msg_posted" and ev.args.get("kind") == "send"
    )
    return {phase: int(counts.get(phase, 0)) for phase in PHASES}


def per_op_costs(trace: TraceRecorder) -> dict[tuple[str, str], dict[str, float]]:
    """Fold the op spans of one traced run by ``(program_id, op_kind)``.

    The simulated interpreter (:func:`repro.program.sim.sweep_process`)
    writes one span per executed sweep op, with the op kind and the
    program's id in its args.  This sums them, over every rank and
    iteration, into ``{"count": n, "seconds": total}`` — where a program
    actually spends its time, op by op.
    """
    agg: dict[tuple[str, str], dict[str, float]] = {}
    for span in trace.spans:
        cell = agg.setdefault(
            (str(span.args["program"]), str(span.args["op"])), {"count": 0.0, "seconds": 0.0}
        )
        cell["count"] += 1.0
        cell["seconds"] += span.duration
    return agg


def simulation_metrics(result: SimulationResult) -> dict[str, float]:
    """Flatten *result* (and its trace, if any) into one metrics dict."""
    m: dict[str, float] = {
        "sim.nodes": float(result.n_nodes),
        "sim.ranks": float(result.n_ranks),
        "sim.iterations": float(result.iterations),
        "sim.total_seconds": float(result.total_seconds),
        "sim.seconds_per_mvm": float(result.seconds_per_mvm),
        "sim.gflops": float(result.gflops),
        "sim.nnz": float(result.nnz),
        "sim.comm_bytes_per_mvm": float(result.comm_bytes_per_mvm),
        "sim.messages_per_mvm": float(result.messages_per_mvm),
        "sim.bytes_transferred": float(result.bytes_transferred),
    }
    if result.trace is not None:
        counts = Counter(ev.name for ev in result.trace.events)
        for name in _MPI_EVENT_NAMES:
            m[f"mpi.{name}"] = float(counts.get(name, 0))
        for phase, n in comm_phase_messages(result.trace).items():
            m[f"comm.phase.{phase}.messages"] = float(n)
        m["trace.spans"] = float(len(result.trace.spans))
        m["trace.events"] = float(len(result.trace.events))
        # a barrier that joins a task-mode region includes its wait for
        # the comm thread
        barriers = [s for s in result.trace.spans if s.args["op"] == "OMP_BARRIER"]
        m["omp.barrier_waits"] = float(len(barriers))
        m["omp.barrier_seconds"] = float(sum(s.duration for s in barriers))
    if result.resource_stats:
        by_class: dict[str, list] = {}
        for key, stats in result.resource_stats.items():
            cls = key[0] if isinstance(key, tuple) and key else str(key)
            by_class.setdefault(str(cls), []).append(stats)
        for cls, stats_list in sorted(by_class.items()):
            m[f"resource.{cls}.count"] = float(len(stats_list))
            m[f"resource.{cls}.bytes_moved"] = float(
                sum(s.bytes_moved for s in stats_list)
            )
            m[f"resource.{cls}.busy_seconds_max"] = float(
                max(s.busy_seconds for s in stats_list)
            )
            m[f"resource.{cls}.max_concurrent_flows"] = float(
                max(s.max_concurrent_flows for s in stats_list)
            )
            m[f"resource.{cls}.flows_started"] = float(
                sum(s.flows_started for s in stats_list)
            )
            if result.total_seconds > 0:
                m[f"resource.{cls}.busy_fraction_max"] = float(
                    max(
                        s.busy_fraction(result.total_seconds) for s in stats_list
                    )
                )
    return m
