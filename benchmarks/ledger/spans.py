"""In-memory span recorder of the traced run.

Spans wrap only calls the benchmark itself makes into ``repro`` (spans
inside ``src/repro`` are ROADMAP item 4).  Each span has a name
``<layer>.<call>``, start, end, the span that caused it, the thread it
ran on and the identifiers (rank, sweep, request, solver iteration) it
belongs to.  Spans stay in memory until the run ends and are then
written as Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path

_OFF = contextlib.nullcontext()


class Span:
    """One timed interval; a context manager that records itself on exit."""

    __slots__ = ("recorder", "id", "name", "parent", "thread", "ids", "start", "end")

    def __init__(self, recorder: "Recorder", name: str, parent: int | None, ids: dict) -> None:
        self.recorder = recorder
        self.id = next(recorder._next_id)
        self.name = name
        self.parent = parent
        self.thread = threading.current_thread().name
        self.ids = ids
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        stack = self.recorder._stack()
        if self.parent is None and stack:
            self.parent = stack[-1].id
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(self)  # list.append is atomic under the GIL

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counts from every thread of the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._next_id = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, parent: int | None = None, **ids) -> Span:
        """A span named *name*; its parent defaults to the span open on
        this thread.  Pass ``parent=`` to link work on another thread to
        the span that caused it."""
        return Span(self, name, parent, ids)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ------------------------------------------------------------------
    def select(self, name: str, *, parent: int | None = None, **ids) -> list[Span]:
        """The spans called *name* under *parent* (any if None) matching *ids*."""
        return [
            s
            for s in self.spans
            if s.name == name
            and (parent is None or s.parent == parent)
            and all(s.ids.get(k) == v for k, v in ids.items())
        ]

    def total(self, name: str, **match) -> float:
        """Summed seconds of the spans :meth:`select` finds."""
        return sum(s.seconds for s in self.select(name, **match))

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Counter[str] = Counter()
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.name] += s.seconds - covered
        return dict(out)

    def write_chrome(self, path: Path) -> Path:
        """Write the spans as Chrome ``trace_event`` JSON (chrome://tracing,
        https://ui.perfetto.dev)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids = {name: i for i, name in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name", "args": {"name": name}}
            for name, tid in tids.items()
        ]
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[s.thread],
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.seconds * 1e6,
                    "args": {"id": s.id, "parent": s.parent, **s.ids},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "counts": dict(self.counts),
                }
            ),
            encoding="utf-8",
        )
        return path


def span(recorder: Recorder | None, name: str, **ids):
    """``recorder.span(...)``, or a no-op context when tracing is off."""
    if recorder is None:
        return _OFF
    return recorder.span(name, **ids)
