"""The per-op summary table of a traced run.

One row per ``(program, op)`` of :func:`repro.obs.per_op_costs`: the op's
span label, how often it ran, how much actor-time it consumed, and which
share of the makespan that is — the numbers behind the paper's Fig. 4
narrative, in one table.

The labels are a stable contract: the simulation backend of the sweep
IR labels compute ops with ``repro.program.SIM_PHASE_LABELS``, ``WAITALL``
with ``MPI_Waitall`` and every other op with its kind.
"""

from __future__ import annotations

from repro.frame.trace import TraceRecorder
from repro.obs.metrics import per_op_costs
from repro.util.tables import Table

__all__ = ["phase_summary"]


def phase_summary(trace: TraceRecorder, *, title: str | None = None) -> Table:
    """One row per ``(program, op)``: label, count, total/mean duration,
    makespan share; each program's rows by total, largest first.

    ``total`` sums over all actors, so ops running concurrently on many
    ranks can exceed 100 % of the makespan — that is actor-time, not
    wall time.
    """
    makespan = trace.makespan() or 1.0
    labels = {(s.args["program"], s.args["op"]): s.label for s in trace.spans}
    table = Table(
        ["program", "op", "phase", "count", "total ms", "mean ms", "% of makespan"],
        title=title,
    )
    for (pid, op), cell in sorted(
        per_op_costs(trace).items(), key=lambda kv: (kv[0][0], -kv[1]["seconds"])
    ):
        count, total = int(cell["count"]), cell["seconds"]
        table.add_row(
            [pid, op, labels[pid, op], count, total * 1e3, total / count * 1e3,
             100.0 * total / makespan]
        )
    return table
