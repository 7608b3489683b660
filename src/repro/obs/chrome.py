"""Chrome/Perfetto ``trace_event`` JSON export.

The `trace_event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
is the lingua franca of timeline viewers: ``chrome://tracing``,
https://ui.perfetto.dev and Speedscope all read it.  We map

* each traced *actor* (``rank0``, ``rank0:comm``, ...) to one thread of
  a single process, named via ``thread_name`` metadata events,
* each op span to a complete (``"ph": "X"``) event carrying its
  ``args`` (op kind, program id),
* each MPI instant to an instant (``"ph": "i"``) event carrying its
  ``args`` payload.

Timestamps are microseconds, as the format requires; the simulator's
clock runs in seconds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.frame.trace import TraceRecorder

__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace"]

_US = 1e6  # seconds -> microseconds


def _tid_map(trace: TraceRecorder) -> dict[str, int]:
    return {actor: tid for tid, actor in enumerate(trace.actors())}


def chrome_trace_events(trace: TraceRecorder, *, pid: int = 0) -> list[dict[str, Any]]:
    """The ``traceEvents`` list for *trace* (metadata first)."""
    tids = _tid_map(trace)
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": actor},
        }
        for actor, tid in tids.items()
    ]
    for span in sorted(trace.spans, key=lambda s: (s.start, s.actor)):
        out.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tids[span.actor],
                "name": span.label,
                "cat": "op",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "args": dict(span.args),
            }
        )
    for ev in trace.iter_events():
        out.append(
            {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": pid,
                "tid": tids[ev.actor],
                "name": ev.name,
                "cat": "mpi",
                "ts": ev.time * _US,
                "args": dict(ev.args),
            }
        )
    return out


def to_chrome_trace(trace: TraceRecorder) -> dict[str, Any]:
    """The full JSON-object form of the trace."""
    return {
        "traceEvents": chrome_trace_events(trace),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(trace: TraceRecorder, path: str | Path) -> Path:
    """Write the trace as JSON; returns the written path.

    Load the file in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(trace), indent=None))
    return path
