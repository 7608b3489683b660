"""STREAM triad: the practical memory-bandwidth ceiling.

The paper uses STREAM triad numbers as the "practical upper bandwidth
limit" against which the spMVM bandwidth is judged (Fig. 3), with
nontemporal stores suppressed and the reported bandwidth scaled by 4/3
to account for the write-allocate transfer (footnote 1).

Two things live here:

* :func:`triad_traffic` — the arithmetic of the triad kernel
  ``a(i) = b(i) + s * c(i)``,
* :func:`measure_host_triad` — an actual numpy micro-benchmark of the
  *host* running this library, used by the examples to relate the
  simulated machines to wherever the code happens to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.util import check_positive_int

__all__ = [
    "WRITE_ALLOCATE_FACTOR",
    "triad_traffic",
    "TriadResult",
    "measure_host_triad",
]

#: Factor 4/3 applied when stores write-allocate: the triad moves 3 visible
#: streams (load b, load c, store a) plus the hidden write-allocate load of a.
WRITE_ALLOCATE_FACTOR = 4.0 / 3.0


def triad_traffic(n: int, *, write_allocate: bool = True) -> float:
    """Bytes moved by one triad sweep over arrays of *n* doubles."""
    n = check_positive_int(n, "n")
    streams = 4.0 if write_allocate else 3.0
    return streams * 8.0 * n


@dataclass(frozen=True)
class TriadResult:
    """Outcome of a host triad measurement."""

    n: int
    repetitions: int
    best_seconds: float
    bandwidth: float  # bytes/s, incl. write-allocate correction

    @property
    def bandwidth_gb(self) -> float:
        """Bandwidth in decimal GB/s (the paper's reporting unit)."""
        return self.bandwidth / 1e9


def measure_host_triad(n: int = 20_000_000, repetitions: int = 5) -> TriadResult:
    """Measure the host's achievable triad bandwidth with numpy.

    The kernel is ``a = b + s * c`` on length-*n* float64 arrays, timed
    over several repetitions; the best (least-disturbed) run counts, as
    in the original STREAM.  numpy's assignment write-allocates, so the
    4/3 correction applies just as in the paper's measurements.
    """
    n = check_positive_int(n, "n")
    repetitions = check_positive_int(repetitions, "repetitions")
    b = np.ones(n)
    c = np.full(n, 0.5)
    a = np.zeros(n)
    s = 1.5
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        np.multiply(c, s, out=a)
        a += b
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return TriadResult(
        n=n,
        repetitions=repetitions,
        best_seconds=best,
        bandwidth=triad_traffic(n) / best,
    )
