"""Timeline tracing: op spans, MPI instants, and ASCII Gantt rendering.

A traced run records two things.  A :class:`Span` is one executed op
of one actor (``rank0``, ``rank0:comm``, ...): its label, its start and
end, and an ``args`` payload (the simulator puts the op kind and the
program id there).  It is written once, when the op ends.  A
:class:`TraceEvent` is one point-in-time MPI instant: a message posted /
matched / wire-started / gated / resumed / completed, or a progress gate
opening or closing, with the byte counts in its ``args``.

Everything a reader needs is a view of these two lists: the Gantt
charts of the paper's Fig. 4, the compute-phase windows, the per-op
costs and the barrier metrics come from the spans; the exporters and
analyses in :mod:`repro.obs` add the instants, which are precise enough
to reconstruct how many bytes a rendezvous transfer moved during any
span — the paper's Fig. 4 overlap argument as a checkable quantity.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class Span:
    """One executed op of one actor."""

    actor: str
    label: str
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """One MPI instant; ``args`` carries its payload (message id, byte
    counts, protocol, ...)."""

    time: float
    actor: str
    name: str
    args: dict[str, Any] = field(default_factory=dict)


# Letter pool for the Gantt legend: the mnemonic paper letters first
# (Compute, Gather, Local, Nonlocal, Waitall, Barrier, ...), then the
# rest of the alphabet and digits.  More labels than pool entries cycle
# through the pool again rather than walking off into punctuation.
_GANTT_PRIMARY = "CGLNWBIRMX"
_GANTT_POOL = _GANTT_PRIMARY + "".join(
    c for c in string.ascii_lowercase + string.ascii_uppercase + string.digits
    if c not in _GANTT_PRIMARY
)


@dataclass
class TraceRecorder:
    """Collects op spans and MPI instants during a run.

    There is no off switch on the recorder: an untraced run passes none.
    """

    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, actor: str, label: str, start: float, end: float, **args: Any) -> None:
        """Add one span."""
        if end < start:
            raise ValueError(f"span ends before it starts ({start} .. {end})")
        self.spans.append(Span(actor, label, start, end, args))

    def emit(self, time: float, actor: str, name: str, **args: Any) -> None:
        """Add one instant."""
        self.events.append(TraceEvent(time, actor, name, args))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def actors(self) -> list[str]:
        """Actors in first-appearance order (spans, then instants)."""
        return list(dict.fromkeys([s.actor for s in self.spans] + [ev.actor for ev in self.events]))

    def by_actor(self, actor: str) -> list[Span]:
        """All spans of one actor, sorted by start time."""
        return sorted((s for s in self.spans if s.actor == actor), key=lambda s: s.start)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Instants in time order."""
        return iter(sorted(self.events, key=lambda ev: ev.time))

    def phase_windows(self, label: str, actor: str | None = None) -> list[tuple[float, float]]:
        """``(start, end)`` of every span labelled *label* (of one actor,
        if given), by start time."""
        return sorted(
            (s.start, s.end)
            for s in self.spans
            if s.label == label and (actor is None or s.actor == actor)
        )

    def makespan(self) -> float:
        """End of the last span / latest instant (0 when empty)."""
        t_span = max((s.end for s in self.spans), default=0.0)
        t_ev = max((ev.time for ev in self.events), default=0.0)
        return max(t_span, t_ev)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_gantt(self, *, width: int = 72, title: str | None = None) -> str:
        """ASCII Gantt chart: one row per actor, labels keyed by letter.

        Each distinct label gets a letter; overlapping spans on one
        actor overwrite left-to-right (later starts win).  With more
        distinct labels than pool letters the letters repeat (the legend
        still lists every label), instead of indexing past the alphabet.
        """
        if not self.spans:
            return "(empty trace)"
        t_end = max(s.end for s in self.spans) or 1.0
        labels: dict[str, str] = {}
        for s in self.spans:
            if s.label not in labels:
                labels[s.label] = _GANTT_POOL[len(labels) % len(_GANTT_POOL)]
        lines = []
        if title:
            lines.append(title)
        actors = list(dict.fromkeys(s.actor for s in self.spans))
        name_w = max(len(a) for a in actors)
        for actor in actors:
            row = [" "] * width
            for s in self.by_actor(actor):
                c0 = int(s.start / t_end * (width - 1))
                c1 = max(c0 + 1, int(round(s.end / t_end * (width - 1))))
                for c in range(c0, min(c1, width)):
                    row[c] = labels[s.label]
            lines.append(f"{actor.rjust(name_w)} |{''.join(row)}|")
        lines.append(f"{' ' * name_w} 0{' ' * (width - 10)}{t_end * 1e3:8.3f} ms")
        for label, letter in labels.items():
            lines.append(f"  {letter} = {label}")
        return "\n".join(lines)
