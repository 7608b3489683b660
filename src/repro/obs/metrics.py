"""Flat metrics extraction from one simulation run.

One ``{name: value}`` dict per :class:`~repro.core.runner.SimulationResult`
— the shape every metrics backend (Prometheus exposition, CSV columns,
regression-test assertions) can ingest without schema negotiation.

Naming convention: dotted lowercase paths.  ``sim.*`` for run-level
figures, ``mpi.*`` for message/event counts from the structured trace,
``resource.<class>.*`` for utilization aggregated over all resources of
one class (``membus``, ``nic_out``, ``nic_in``, ``intra``,
``torus_links``).
"""

from __future__ import annotations

from collections import Counter

from repro.comm.plan import PHASES
from repro.core.runner import SimulationResult
from repro.frame.trace import TraceRecorder

__all__ = ["simulation_metrics", "comm_phase_messages", "per_op_costs", "render_op_costs"]

#: Structured-event names folded into ``mpi.<name>`` counters.
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


def per_op_costs(trace: TraceRecorder) -> dict[tuple[str, int, str], dict[str, float]]:
    """Aggregate the per-op cost attribution events of one traced run.

    The simulated interpreter (:func:`repro.program.sim.sweep_process`)
    emits one ``op_cost`` event per executed sweep op, keyed on the
    program signature id and the op's sweep index.  This folds them into
    ``(program_id, sweep, op_kind) -> {"count": n, "seconds": total}``
    — the data behind ``repro trace --per-op``: where one chained
    program actually spends its time, sweep by sweep.
    """
    agg: dict[tuple[str, int, str], dict[str, float]] = {}
    for ev in trace.events_named("op_cost", "program"):
        key = (str(ev.args["program"]), int(ev.args["sweep"]), str(ev.args["op"]))
        cell = agg.get(key)
        if cell is None:
            cell = agg[key] = {"count": 0.0, "seconds": 0.0}
        cell["count"] += 1.0
        cell["seconds"] += float(ev.args.get("seconds", 0.0))
    return agg


def render_op_costs(trace: TraceRecorder) -> str:
    """ASCII table of :func:`per_op_costs`, grouped by program and sweep."""
    agg = per_op_costs(trace)
    if not agg:
        return "no op_cost events recorded (trace the run with trace=True)"
    lines = [f"{'program':<32} {'sweep':>5} {'op':<14} {'count':>7} {'seconds':>12}"]
    for (pid, sweep, op), cell in sorted(agg.items()):
        lines.append(
            f"{pid:<32} {sweep:>5} {op:<14} {int(cell['count']):>7} "
            f"{cell['seconds']:>12.6f}"
        )
    return "\n".join(lines)


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
        counts = Counter(ev.name for ev in result.trace.events if ev.category == "mpi")
        for name in _MPI_EVENT_NAMES:
            m[f"mpi.{name}"] = float(counts.get(name, 0))
        for phase, n in comm_phase_messages(result.trace).items():
            m[f"comm.phase.{phase}.messages"] = float(n)
        m["trace.intervals"] = float(len(result.trace.intervals))
        m["trace.events"] = float(len(result.trace.events))
        barriers = [ev for ev in result.trace.events if ev.category == "barrier"]
        m["omp.barrier_waits"] = float(len(barriers))
        m["omp.barrier_seconds"] = float(
            sum(ev.args.get("seconds", 0.0) for ev in barriers)
        )
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
