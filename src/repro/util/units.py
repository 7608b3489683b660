"""Unit helpers and constants used by the performance models.

All bandwidths in this library are in **bytes per second**, all times in
**seconds**, all rates in **flops per second**, unless a name says
otherwise (e.g. ``gib``).  The helpers below exist so that calibration
constants taken from the paper ("21.2 GB/s", "2.25 GFlop/s") can be
written exactly as printed.
"""

from __future__ import annotations

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "gb_per_s",
    "to_gb_per_s",
]

KIB = 1024
MIB = 1024**2
GIB = 1024**3

# The paper (and STREAM) use decimal GB/s.
KB = 10**3
MB = 10**6
GB = 10**9


def gb_per_s(value: float) -> float:
    """Convert a bandwidth given in decimal GB/s to bytes/s."""
    return float(value) * GB


def to_gb_per_s(bytes_per_s: float) -> float:
    """Convert bytes/s to decimal GB/s (for reporting)."""
    return bytes_per_s / GB
