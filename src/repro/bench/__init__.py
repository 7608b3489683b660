"""The guard suite and its timing harness, with a stable JSON output schema.

``python -m repro bench`` runs :func:`spmvm_suite`, writes the results
(schema ``repro-bench/1``; see :mod:`repro.bench.harness` for the
layout) and then enforces every guard
(:func:`repro.bench.suite.guard_failures`).  How *fast* the distributed,
serve and solve paths are is ``benchmarks/ledger``'s question, not this
package's.
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchResult,
    TimingStats,
    time_callable,
    write_results,
)
from repro.bench.suite import (
    BLOCK_WIDTHS,
    SANITIZER_OVERHEAD_MAX,
    kernel_guard,
    program_guard,
    sanitizer_guard,
    spmvm_suite,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "TimingStats",
    "time_callable",
    "write_results",
    "BLOCK_WIDTHS",
    "SANITIZER_OVERHEAD_MAX",
    "kernel_guard",
    "program_guard",
    "sanitizer_guard",
    "spmvm_suite",
]
