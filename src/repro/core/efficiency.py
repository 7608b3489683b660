"""Parallel-efficiency bookkeeping for strong-scaling studies.

The paper marks, on every curve of Fig. 5, the point where parallel
efficiency (relative to the *best single-node* performance) drops to
50 % — "in practice one would not go beyond this number of nodes
because of bad resource utilization".
"""

from __future__ import annotations

from typing import Sequence

from repro.util import check_positive_float

__all__ = ["parallel_efficiency", "fifty_percent_point"]


def parallel_efficiency(performance: float, n_nodes: int, single_node_performance: float) -> float:
    """Strong-scaling efficiency: ``P(N) / (N * P_ref)``."""
    check_positive_float(single_node_performance, "single_node_performance")
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    return performance / (n_nodes * single_node_performance)


def fifty_percent_point(
    nodes: Sequence[int],
    performance: Sequence[float],
    single_node_performance: float,
    *,
    threshold: float = 0.5,
) -> float | None:
    """Node count at which efficiency crosses *threshold* (interpolated).

    Returns ``None`` when efficiency stays above the threshold over the
    whole measured range (the sAMG case: "parallel efficiency is above
    50 % for all versions up to 32 nodes").
    """
    if len(nodes) != len(performance):
        raise ValueError("nodes and performance must have equal length")
    effs = [
        parallel_efficiency(p, n, single_node_performance)
        for n, p in zip(nodes, performance)
    ]
    prev_n, prev_e = None, None
    for n, e in zip(nodes, effs):
        if e < threshold:
            if prev_n is None:
                return float(n)
            # linear interpolation between the straddling points
            frac = (prev_e - threshold) / (prev_e - e)
            return float(prev_n + frac * (n - prev_n))
        prev_n, prev_e = n, e
    return None
