"""Golden views of a simulated trace: what every ``repro.obs`` reader sees.

:mod:`repro.obs` and Fig. 4 read a trace through a handful of views:
the per-op costs, each rank's compute-phase windows, the rendezvous
bytes moved inside those windows, the reconstructed transfer segments,
the stream of MPI instants, and the rank-0 Gantt chart Fig. 4 draws.
This test pins all of them, floats as ``float.hex()``, on seven tiny
runs, so a change to how the simulator records a trace cannot move
what any reader reports.

The points are the three schemes with asynchronous progress off and
on, plus task mode with k = 4 right-hand sides, all on two Westmere
nodes (four ranks) with a small eager threshold so that rendezvous
messages are paused and resumed.

The golden values live in ``trace_golden.json`` next to this file.  A
change that is *meant* to move one of these views regenerates it with
``PYTHONPATH=src python tests/test_trace_golden.py`` and says why.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.core import simulate_spmvm
from repro.experiments import run_fig4
from repro.machine import westmere_cluster
from repro.matrices import get_matrix
from repro.obs import overlap_bytes_with_phase, per_op_costs, transfer_segments
from repro.program import SIM_PHASE_LABELS

GOLDEN = Path(__file__).with_name("trace_golden.json")

#: name -> simulate_spmvm keywords (HMeP tiny, 2 Westmere nodes, per-LD)
POINTS = {
    f"{scheme}-k1{'-async' if async_progress else ''}": dict(
        scheme=scheme, async_progress=async_progress
    )
    for scheme in ("no_overlap", "naive_overlap", "task_mode")
    for async_progress in (False, True)
}
POINTS["task_mode-k4"] = dict(scheme="task_mode", block_k=4)

#: The instants the simulated MPI writes (message lifecycle and gate).
MPI_INSTANTS = frozenset(
    ("msg_posted", "msg_matched", "wire_started", "msg_gated", "msg_resumed",
     "msg_completed", "gate_open", "gate_close")
)


@functools.cache
def _matrix():
    return get_matrix("HMeP", "tiny").build()


def _windows(windows) -> list[str]:
    return [f"{lo.hex()} {hi.hex()}" for lo, hi in windows]


def snapshot(point: str) -> dict:
    """Every trace view of one point, floats as ``float.hex()``, one
    string per window, segment and instant."""
    r = simulate_spmvm(
        _matrix(), westmere_cluster(2), mode="per-ld", kappa=2.5,
        eager_threshold=64, trace=True, **POINTS[point],
    )
    trace = r.trace
    labels = sorted(SIM_PHASE_LABELS.values())
    instants = sorted(
        (ev for ev in trace.events if ev.name in MPI_INSTANTS), key=lambda ev: ev.time
    )
    return {
        "per_op_costs": {
            f"{pid} {op}": f"{int(cell['count'])} {float(cell['seconds']).hex()}"
            for (pid, op), cell in sorted(per_op_costs(trace).items())
        },
        "phase_windows": {
            f"rank{rank} {label}": _windows(trace.phase_windows(label, actor=f"rank{rank}"))
            for rank in range(r.n_ranks)
            for label in labels
        },
        "overlap_bytes": {
            label: overlap_bytes_with_phase(trace, label).hex() for label in labels
        },
        "transfer_segments": [
            f"{s.mid} {s.src} {s.dst} {s.protocol} {s.start.hex()} {s.end.hex()} "
            f"{s.nbytes.hex()}"
            for s in transfer_segments(trace)
        ],
        "mpi_instants": [
            f"{ev.name} {ev.actor} {ev.time.hex()} {json.dumps(ev.args, sort_keys=True)}"
            for ev in instants
        ],
    }


def fig4_snapshot() -> dict:
    """The rank-0 Gantt charts Fig. 4 draws, progress off and on."""
    return {
        f"async={async_progress}": run_fig4("tiny", async_progress=async_progress).charts
        for async_progress in (False, True)
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("point", sorted(POINTS))
def test_trace_views_are_bit_identical(point):
    assert snapshot(point) == _golden()["points"][point]


def test_fig4_rank0_gantt_is_unchanged():
    assert fig4_snapshot() == _golden()["fig4"]


def test_golden_covers_every_point():
    assert sorted(_golden()["points"]) == sorted(POINTS)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {"points": {p: snapshot(p) for p in sorted(POINTS)}, "fig4": fig4_snapshot()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
