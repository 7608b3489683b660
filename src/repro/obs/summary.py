"""Per-phase summary table from a timeline trace.

Aggregates the recorded intervals by label — how often each phase ran,
how much actor-time it consumed, and which share of the makespan it
covers — the numbers behind the paper's Fig. 4 narrative, in one table.

The labels are a stable contract: the simulation backend of the sweep
IR emits exactly ``repro.program.SIM_PHASE_LABELS`` for compute ops
(plus ``MPI_Waitall`` and the ``:comm`` actor suffix for task mode's
communication thread), so these tables survived the scheme refactor
unchanged.
"""

from __future__ import annotations

from repro.frame.trace import TraceRecorder
from repro.util.tables import Table

__all__ = ["phase_summary"]


def phase_summary(trace: TraceRecorder, *, title: str | None = None) -> Table:
    """One row per interval label: count, total/mean duration, makespan share.

    ``total`` sums over all actors, so phases running concurrently on
    many ranks can exceed 100 % of the makespan — that is actor-time,
    not wall time.
    """
    makespan = trace.makespan() or 1.0
    by_label: dict[str, list[float]] = {}
    for iv in trace.intervals:
        by_label.setdefault(iv.label, []).append(iv.duration)
    table = Table(
        ["phase", "count", "total ms", "mean ms", "% of makespan"],
        title=title,
    )
    for label, durations in sorted(
        by_label.items(), key=lambda kv: -sum(kv[1])
    ):
        total = sum(durations)
        table.add_row(
            [
                label,
                len(durations),
                total * 1e3,
                total / len(durations) * 1e3,
                100.0 * total / makespan,
            ]
        )
    return table
