"""Result records of the guard suite.

Times are wall-clock seconds; ``derived`` holds benchmark-specific
numbers (GFlop/s, per-column times, speedups, overhead ratios) computed
from the *minimum* — the least-noise estimate of the true cost.  The
samples themselves come from the one timing loop,
:func:`repro.bench.suite._paired_ratio`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

__all__ = ["TimingStats", "BenchResult"]


@dataclass(frozen=True)
class TimingStats:
    """One side's timed samples of a paired measurement (wall-clock seconds)."""

    samples: tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)


@dataclass(frozen=True)
class BenchResult:
    """One named measurement of the suite."""

    name: str
    group: str  # "kernel" | "program" | "check"
    warmup: int
    repeat: int
    seconds: TimingStats
    params: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)

    def describe(self) -> str:
        """One aligned line for terminal output."""
        extra = " ".join(f"{k}={v:.3g}" for k, v in sorted(self.derived.items()))
        return (
            f"{self.group:>12} | {self.name:<24} | "
            f"{self.seconds.min * 1e3:9.3f} ms min | "
            f"{self.seconds.mean * 1e3:9.3f} ms mean | {extra}"
        )
