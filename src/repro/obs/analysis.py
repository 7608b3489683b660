"""Transfer-segment reconstruction from the MPI instants of a trace.

A rendezvous message's life on the wire is piecewise: it starts (possibly
already gated), is paused whenever the MPI progress gate of either
endpoint closes, resumes when the gate reopens, and eventually completes.
The simulated MPI emits an event at each of these transitions *with the
cumulative byte count at that instant*, so the exact number of bytes
moved in every active stretch is known; within a stretch bytes are
attributed linearly over time (the rate may vary with contention, so
sub-segment attribution is an approximation — segment totals are exact).

This is what lets the Fig. 4 reproduction assert, from data rather than
from the picture, that rendezvous bytes move *during* the local spMVM in
task mode but not under naive overlap with 2010-era progress semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.frame.trace import TraceRecorder

__all__ = [
    "TransferSegment",
    "transfer_segments",
    "merge_windows",
    "bytes_moved_during",
    "overlap_bytes_with_phase",
]

_LIFECYCLE = ("wire_started", "msg_gated", "msg_resumed", "msg_completed")


@dataclass(frozen=True)
class TransferSegment:
    """One actively-transferring stretch of one message."""

    mid: int
    src: int
    dst: int
    protocol: str
    start: float
    end: float
    nbytes: float  # bytes moved within this segment (exact)

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.end - self.start


def transfer_segments(
    trace: TraceRecorder, *, protocol: str | None = None
) -> list[TransferSegment]:
    """Active-transfer segments of every message, reconstructed from instants.

    ``protocol`` restricts the result to ``"eager"`` or ``"rendezvous"``
    messages.  Messages that never reached the wire contribute nothing.
    """
    by_mid: dict[int, list] = {}
    for ev in trace.iter_events():
        if ev.name in _LIFECYCLE and "mid" in ev.args:
            by_mid.setdefault(ev.args["mid"], []).append(ev)
    segments: list[TransferSegment] = []
    for mid, events in sorted(by_mid.items()):
        proto = ""
        src = dst = -1
        active_since: float | None = None
        transferred_at_start = 0.0
        for ev in events:  # already time-ordered by iter_events
            if ev.name == "wire_started":
                proto = ev.args.get("protocol", "")
                src = ev.args.get("src", -1)
                dst = ev.args.get("dst", -1)
                if not ev.args.get("paused", False):
                    active_since = ev.time
                    transferred_at_start = 0.0
            elif ev.name == "msg_resumed":
                if active_since is None:
                    active_since = ev.time
                    transferred_at_start = float(ev.args.get("transferred", 0.0))
            elif ev.name in ("msg_gated", "msg_completed") and active_since is not None:
                moved = float(ev.args.get("transferred", 0.0)) - transferred_at_start
                if moved > 0 or ev.time > active_since:
                    segments.append(
                        TransferSegment(
                            mid=mid, src=src, dst=dst, protocol=proto,
                            start=active_since, end=ev.time, nbytes=max(0.0, moved),
                        )
                    )
                active_since = None
    if protocol is not None:
        segments = [s for s in segments if s.protocol == protocol]
    return sorted(segments, key=lambda s: (s.start, s.mid))


def merge_windows(windows: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping ``(start, end)`` windows."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted((lo, hi) for lo, hi in windows if hi > lo):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def bytes_moved_during(
    segments: Sequence[TransferSegment], windows: Iterable[tuple[float, float]]
) -> float:
    """Bytes the *segments* moved inside the union of the *windows*.

    Within one segment bytes are attributed proportionally to overlap
    time; a zero-duration segment counts fully if its instant lies in a
    window.
    """
    merged = merge_windows(windows)
    total = 0.0
    for seg in segments:
        for lo, hi in merged:
            overlap = min(seg.end, hi) - max(seg.start, lo)
            if overlap <= 0 and not (seg.duration == 0 and lo <= seg.start <= hi):
                continue
            if seg.duration == 0:
                total += seg.nbytes
            else:
                total += seg.nbytes * max(0.0, overlap) / seg.duration
    return total


def overlap_bytes_with_phase(
    trace: TraceRecorder,
    label: str = "local spMVM",
    *,
    protocol: str | None = "rendezvous",
) -> float:
    """Bytes moved while one of the message's *own endpoints* ran *label*.

    This is the communication/computation-overlap quantity of the paper:
    a transfer counts only while its sending or receiving rank is inside
    the named compute phase.  Under 2010-era progress semantics a
    rendezvous transfer progresses only when both endpoints sit inside
    MPI — i.e. in no compute phase — so this is exactly 0 for naive
    overlap, and large in task mode, where the comm thread holds the
    gate open during the compute threads' local spMVM.  (A global
    any-rank window would instead pick up incidental drift overlap from
    unrelated rank pairs.)
    """
    windows_of: dict[int, list[tuple[float, float]]] = {}

    def rank_windows(rank: int) -> list[tuple[float, float]]:
        if rank not in windows_of:
            windows_of[rank] = trace.phase_windows(label, actor=f"rank{rank}")
        return windows_of[rank]

    total = 0.0
    for seg in transfer_segments(trace, protocol=protocol):
        total += bytes_moved_during([seg], rank_windows(seg.src) + rank_windows(seg.dst))
    return total
