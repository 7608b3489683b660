"""Predicting κ from matrix structure with a cache model.

The paper *measures* κ — the extra bytes of RHS traffic per inner-loop
iteration caused by limited cache capacity — and finds 2.5 for the
banded HMeP ordering and 3.79 for the scattered HMEp ordering of the
same Hamiltonian.  This module closes the loop: it *predicts* κ by
streaming the kernel's RHS access pattern through an LRU cache model.

Model
-----
The spMVM reads ``B[col_idx[j]]`` for every nonzero, in storage order.
RHS elements live in 64-byte cache lines (8 doubles).  A fully
associative LRU cache of the effective per-thread capacity serves the
stream; every miss beyond each line's compulsory first load is a reload,
and::

    kappa = 64 bytes x (reloads / Nnz)

(the paper's κ counts per-iteration bytes; a missed line fetches 64 B
but typically serves several of the row's accesses — charging the line
on the missing access reproduces the measured magnitude).

An exact LRU over millions of accesses is O(Nnz) with a hash map +
doubly-linked list; for large matrices a row-block *sampling* mode
processes a prefix of rows per block, which converges quickly because
the reload behaviour is stationary along the band.

The effective capacity should be the cache available *per traffic
stream*: on Nehalem the spMVM streams val/col_idx/C besides B, so only
part of the 8 MB L3 holds RHS lines; ``rhs_cache_fraction`` (default
0.5) models that split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util import check_fraction, check_positive_int

__all__ = ["CacheConfig", "KappaPrediction", "simulate_rhs_traffic"]

_LINE_BYTES = 64
_DOUBLES_PER_LINE = _LINE_BYTES // 8


@dataclass(frozen=True)
class CacheConfig:
    """Cache parameters for the κ prediction.

    ``capacity_bytes`` is the outer-level cache serving the RHS stream
    (per locality domain); ``rhs_cache_fraction`` the share of it the
    RHS effectively occupies next to the val/col_idx/C streams.
    """

    capacity_bytes: int = 8 * 1024 * 1024  # Nehalem/Westmere L3 per socket
    rhs_cache_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_positive_int(self.capacity_bytes, "capacity_bytes")
        check_fraction(self.rhs_cache_fraction, "rhs_cache_fraction")

    @property
    def lines(self) -> int:
        """Cache lines available to the RHS stream."""
        return max(1, int(self.capacity_bytes * self.rhs_cache_fraction) // _LINE_BYTES)


@dataclass(frozen=True)
class KappaPrediction:
    """Outcome of a cache simulation."""

    kappa: float
    accesses: int
    misses: int
    compulsory: int
    reloads: int
    lines: int

    @property
    def miss_rate(self) -> float:
        """Total miss rate of the RHS stream."""
        return self.misses / max(1, self.accesses)


class _LRU:
    """Fully associative LRU set of integer line ids.

    Implemented with an ordered dict (Python dicts preserve insertion
    order; move-to-back is delete+insert) — O(1) per access.
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: dict[int, None] = {}

    def access(self, line: int) -> bool:
        """Touch *line*; returns True on hit."""
        entries = self.entries
        if line in entries:
            del entries[line]
            entries[line] = None
            return True
        if len(entries) >= self.capacity:
            # evict the least recently used entry (front of the dict)
            entries.pop(next(iter(entries)))
        entries[line] = None
        return False


def simulate_rhs_traffic(
    A: CSRMatrix,
    config: CacheConfig | None = None,
    *,
    sample_rows: int | None = 50_000,
    seed: int = 0,
) -> KappaPrediction:
    """Stream the kernel's RHS accesses through an LRU cache.

    ``sample_rows`` bounds the number of simulated rows (a contiguous
    block starting at a deterministic offset past the warm-up region);
    ``None`` simulates every row.
    """
    config = config or CacheConfig()
    lines_cap = config.lines
    lru = _LRU(lines_cap)
    nrows = A.nrows
    if sample_rows is None or sample_rows >= nrows:
        row_lo, row_hi = 0, nrows
    else:
        # skip a warm-up region, then simulate a contiguous block
        rng = np.random.default_rng(seed)
        max_start = nrows - sample_rows
        row_lo = int(rng.integers(0, max_start + 1))
        row_hi = row_lo + sample_rows
        # warm the cache on the preceding rows (up to one cache capacity)
        warm_lo = max(0, row_lo - 2000)
        for j in range(int(A.row_ptr[warm_lo]), int(A.row_ptr[row_lo])):
            lru.access(int(A.col_idx[j]) // _DOUBLES_PER_LINE)

    accesses = 0
    misses = 0
    seen_lines: set[int] = set()
    compulsory = 0
    col_idx = A.col_idx
    lo, hi = int(A.row_ptr[row_lo]), int(A.row_ptr[row_hi])
    for j in range(lo, hi):
        line = int(col_idx[j]) // _DOUBLES_PER_LINE
        accesses += 1
        if not lru.access(line):
            misses += 1
            if line not in seen_lines:
                seen_lines.add(line)
                compulsory += 1
    reloads = misses - compulsory
    kappa = _LINE_BYTES * reloads / max(1, accesses)
    return KappaPrediction(
        kappa=kappa,
        accesses=accesses,
        misses=misses,
        compulsory=compulsory,
        reloads=reloads,
        lines=lines_cap,
    )
