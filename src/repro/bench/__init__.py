"""The guard suite: ratios nothing else gates, measured one way.

``python -m repro bench`` runs :func:`spmvm_suite`, prints every result
and then enforces every guard
(:func:`repro.bench.suite.guard_failures`).  How *fast* the distributed,
serve and solve paths are is ``benchmarks/ledger``'s question, not this
package's.
"""

from repro.bench.harness import BenchResult, TimingStats
from repro.bench.suite import (
    BLOCK_WIDTHS,
    RECORDER_OVERHEAD_MAX,
    SANITIZER_OVERHEAD_MAX,
    kernel_guard,
    program_guard,
    recorder_guard,
    sanitizer_guard,
    spmvm_suite,
)

__all__ = [
    "BenchResult",
    "TimingStats",
    "BLOCK_WIDTHS",
    "RECORDER_OVERHEAD_MAX",
    "SANITIZER_OVERHEAD_MAX",
    "kernel_guard",
    "program_guard",
    "recorder_guard",
    "sanitizer_guard",
    "spmvm_suite",
]
