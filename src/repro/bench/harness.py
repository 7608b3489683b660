"""Timing harness and stable on-disk schema for the benchmark suite.

The harness is deliberately tiny: warm a callable up, time ``repeat``
runs with :func:`time.perf_counter`, and keep summary statistics.  The
JSON layout written by :func:`write_results` is a stable contract
(``repro-bench/1``) so CI jobs and plotting scripts can consume
``BENCH_*.json`` files without chasing code changes:

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "created": "2026-01-01T00:00:00+00:00",
      "python": "3.12.3",
      "numpy": "2.4.6",
      "csr_rowsums": {"available": true, "library": "~/.cache/repro/rowsums-….so",
                      "compiler": null, "flags": ["-O3", "…"], "reason": null},
      "quick": false,
      "results": [
        {
          "name": "spmm-k4", "group": "kernel",
          "params": {"nrows": 20000, "nnz": 300000, "k": 4},
          "warmup": 3, "repeat": 7,
          "seconds": {"min": 0.001, "mean": 0.001, "median": 0.001, "std": 0.0},
          "derived": {"gflops": 1.2}
        }
      ]
    }

``csr_rowsums`` is :func:`repro.sparse.native.status`: which executor
of the CSR row sums was timed (the compiled one and where it was loaded
from, or numpy and why).  Times are wall-clock seconds; ``derived`` holds benchmark-specific
numbers (GFlop/s, per-column times, speedups) computed from the
*minimum* — the least-noise estimate of the true cost.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.util import check_positive_int

__all__ = ["BENCH_SCHEMA", "TimingStats", "BenchResult", "time_callable", "write_results"]

#: Version tag of the JSON layout below.  Bump only on breaking changes.
BENCH_SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class TimingStats:
    """Summary of one benchmark's timed samples (wall-clock seconds)."""

    samples: tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def std(self) -> float:
        return statistics.pstdev(self.samples) if len(self.samples) > 1 else 0.0

    def to_dict(self) -> dict:
        return {
            "min": self.min,
            "mean": self.mean,
            "median": self.median,
            "std": self.std,
        }


@dataclass(frozen=True)
class BenchResult:
    """One named measurement of the suite."""

    name: str
    group: str  # "kernel" | "distributed" | ...
    warmup: int
    repeat: int
    seconds: TimingStats
    params: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "params": dict(self.params),
            "warmup": self.warmup,
            "repeat": self.repeat,
            "seconds": self.seconds.to_dict(),
            "derived": dict(self.derived),
        }

    def describe(self) -> str:
        """One aligned line for terminal output."""
        extra = " ".join(f"{k}={v:.3g}" for k, v in sorted(self.derived.items()))
        return (
            f"{self.group:>12} | {self.name:<24} | "
            f"{self.seconds.min * 1e3:9.3f} ms min | "
            f"{self.seconds.mean * 1e3:9.3f} ms mean | {extra}"
        )


def time_callable(fn: Callable[[], object], *, warmup: int = 2, repeat: int = 5) -> TimingStats:
    """Time ``fn()``: run it *warmup* times untimed, then *repeat* times timed.

    The warmup runs absorb one-off costs (allocation, caching, JIT-like
    effects such as the halo-plan cache) so the timed samples measure the
    steady state — the quantity the paper's sweeps report.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    check_positive_int(repeat, "repeat")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return TimingStats(samples=tuple(samples))


def write_results(
    results: Iterable[BenchResult],
    path: str | Path,
    *,
    quick: bool = False,
) -> dict:
    """Serialise *results* to *path* per the ``repro-bench/1`` schema.

    Returns the payload that was written (handy for tests and callers
    that also want to print it).
    """
    import numpy

    from repro.sparse import native

    payload = {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "csr_rowsums": native.status().to_dict(),
        "quick": bool(quick),
        "results": [r.to_dict() for r in results],
    }
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
