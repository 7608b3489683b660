"""Timeline tracing, structured events, and ASCII Gantt rendering.

Scheme implementations record what each simulated actor (thread, rank,
NIC) is doing and when; the recorder turns those intervals into the
schematic timeline views the paper uses to explain the three kernel
versions (Fig. 4).

Beyond the coarse *intervals* the recorder also collects a structured
*event stream*: point-in-time records (message posted / matched /
wire-started / gated / resumed / completed, compute-phase begin/end,
barrier waits, MPI progress-gate transitions) with free-form ``args``
payloads.  The event stream is what the observability exporters in
:mod:`repro.obs` consume — it is precise enough to reconstruct how many
bytes a rendezvous transfer moved during any compute phase, which turns
the paper's Fig. 4 overlap argument from a picture into a checkable
quantity.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Interval", "TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class Interval:
    """One traced activity of one actor."""

    actor: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """One structured point-in-time event.

    ``category`` groups related events (``"mpi"``, ``"phase"``,
    ``"barrier"``, ``"gate"``); ``args`` carries event-specific payload
    (message ids, byte counts, protocol, ...).
    """

    time: float
    actor: str
    name: str
    category: str = ""
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
    """Collects activity intervals and structured events during a run."""

    intervals: list[Interval] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, actor: str, label: str, start: float, end: float) -> None:
        """Add one interval (no-op when disabled)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"interval ends before it starts ({start} .. {end})")
        self.intervals.append(Interval(actor, label, start, end))

    def emit(
        self, time: float, actor: str, name: str, category: str = "", **args: Any
    ) -> None:
        """Add one structured event (no-op when disabled)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(time, actor, name, category, args))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def actors(self) -> list[str]:
        """Actors in first-appearance order (intervals, then events)."""
        seen: list[str] = []
        for iv in self.intervals:
            if iv.actor not in seen:
                seen.append(iv.actor)
        for ev in self.events:
            if ev.actor not in seen:
                seen.append(ev.actor)
        return seen

    def by_actor(self, actor: str) -> list[Interval]:
        """All intervals of one actor, sorted by start time."""
        return sorted(
            (iv for iv in self.intervals if iv.actor == actor), key=lambda iv: iv.start
        )

    def events_named(self, name: str, category: str | None = None) -> list[TraceEvent]:
        """All events with the given name (optionally also category), by time."""
        return sorted(
            (
                ev
                for ev in self.events
                if ev.name == name and (category is None or ev.category == category)
            ),
            key=lambda ev: ev.time,
        )

    def iter_events(self, category: str | None = None) -> Iterator[TraceEvent]:
        """Events in time order, optionally restricted to one category."""
        return iter(
            sorted(
                (ev for ev in self.events if category is None or ev.category == category),
                key=lambda ev: ev.time,
            )
        )

    def phase_windows(self, label: str, actor: str | None = None) -> list[tuple[float, float]]:
        """``(start, end)`` windows of one compute-phase label.

        Prefers the structured ``phase_begin``/``phase_end`` event pairs;
        falls back to recorded intervals with that label when no events
        were emitted (older traces).
        """
        begins = [
            ev
            for ev in self.events_named("phase_begin", "phase")
            if ev.args.get("label") == label and (actor is None or ev.actor == actor)
        ]
        ends = [
            ev
            for ev in self.events_named("phase_end", "phase")
            if ev.args.get("label") == label and (actor is None or ev.actor == actor)
        ]
        if begins and len(begins) == len(ends):
            return [(b.time, e.time) for b, e in zip(begins, ends)]
        return [
            (iv.start, iv.end)
            for iv in sorted(self.intervals, key=lambda iv: iv.start)
            if iv.label == label and (actor is None or iv.actor == actor)
        ]

    def makespan(self) -> float:
        """End of the last interval / latest event (0 when empty)."""
        t_iv = max((iv.end for iv in self.intervals), default=0.0)
        t_ev = max((ev.time for ev in self.events), default=0.0)
        return max(t_iv, t_ev)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_gantt(self, *, width: int = 72, title: str | None = None) -> str:
        """ASCII Gantt chart: one row per actor, labels keyed by letter.

        Each distinct label gets a letter; overlapping intervals on one
        actor overwrite left-to-right (later starts win), which matches
        how the schemes nest barriers inside phases.  With more distinct
        labels than pool letters the letters repeat (the legend still
        lists every label), instead of indexing past the alphabet.
        """
        if not self.intervals:
            return "(empty trace)"
        t_end = max((iv.end for iv in self.intervals), default=0.0)
        t_end = t_end or 1.0
        labels: dict[str, str] = {}
        for iv in self.intervals:
            if iv.label not in labels:
                labels[iv.label] = _GANTT_POOL[len(labels) % len(_GANTT_POOL)]
        lines = []
        if title:
            lines.append(title)
        actors = [a for a in self.actors() if any(iv.actor == a for iv in self.intervals)]
        name_w = max(len(a) for a in actors)
        for actor in actors:
            row = [" "] * width
            for iv in self.by_actor(actor):
                c0 = int(iv.start / t_end * (width - 1))
                c1 = max(c0 + 1, int(round(iv.end / t_end * (width - 1))))
                for c in range(c0, min(c1, width)):
                    row[c] = labels[iv.label]
            lines.append(f"{actor.rjust(name_w)} |{''.join(row)}|")
        lines.append(f"{' ' * name_w} 0{' ' * (width - 10)}{t_end * 1e3:8.3f} ms")
        for label, letter in labels.items():
            lines.append(f"  {letter} = {label}")
        return "\n".join(lines)
