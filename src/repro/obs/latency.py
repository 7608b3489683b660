"""Latency/throughput summaries for the solver service.

The simulator side of :mod:`repro.obs` summarises *one* run in depth;
a request-serving system needs the orthogonal view — the distribution
of many small runs.  :func:`latency_summary` reduces a latency sample
set to the percentile report every serving benchmark quotes (p50/p90/
p99) and :func:`throughput` is the matching requests-per-second rate;
both are read by the ``repro serve`` driver
(:mod:`repro.serve.driver`).  The benchmark ledger reads
:func:`percentile` for its request p95.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["latency_summary", "percentile", "throughput"]


def percentile(samples: Iterable[float], q: float) -> float:
    """The *q*-th percentile of *samples* (linear interpolation).

    Self-contained (sort + interpolate) so callers can feed plain
    lists of floats without numpy round-trips; ``q`` is in ``[0, 100]``.
    """
    xs = sorted(float(s) for s in samples)
    if not xs:
        raise ValueError("percentile() of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(xs) == 1:
        return xs[0]
    pos = (q / 100.0) * (len(xs) - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac


def latency_summary(
    samples: Iterable[float], *, percentiles: tuple[float, ...] = (50.0, 90.0, 99.0)
) -> dict[str, float]:
    """Reduce latency *samples* (seconds) to the standard serving report.

    Returns ``{"count", "min", "mean", "max", "p50", "p90", "p99"}``
    (one ``p{q:g}`` key per requested percentile), all in seconds.
    """
    xs = sorted(float(s) for s in samples)
    if not xs:
        raise ValueError("latency_summary() of an empty sample set")
    out = {
        "count": float(len(xs)),
        "min": xs[0],
        "mean": sum(xs) / len(xs),
        "max": xs[-1],
    }
    for q in percentiles:
        out[f"p{q:g}"] = percentile(xs, q)
    return out


def throughput(count: int, wall_seconds: float) -> float:
    """Completed requests per second over a *wall_seconds* window."""
    if wall_seconds <= 0.0:
        raise ValueError(f"wall_seconds must be > 0, got {wall_seconds}")
    return count / wall_seconds

