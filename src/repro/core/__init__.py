"""The paper's contribution: hybrid-parallel spMVM.

* :mod:`repro.core.halo` — one-time communication bookkeeping,
* :mod:`repro.core.spmvm` — the kernel actually executing on mpilite
  (all three schemes of Fig. 4, numerically verified),
* :mod:`repro.core.costs` / :mod:`repro.core.schemes` /
  :mod:`repro.core.runner` — the same schemes as timed simulation
  processes on the calibrated machines,
* :mod:`repro.core.efficiency` — strong-scaling efficiency tooling.
"""

from repro.core.costs import PhaseCosts, phase_costs
from repro.core.efficiency import fifty_percent_point, parallel_efficiency
from repro.core.halo import HaloPlan, RankHalo, build_halo_plan, cached_halo_plan
from repro.core.runner import SimulationResult, simulate_from_plan, simulate_spmvm
from repro.core.schemes import SIM_SCHEMES, RankContext, rank_process
from repro.core.spmvm import (
    SCHEMES,
    DistributedSpMVM,
    distributed_spmm,
    distributed_spmv,
    gather_vector,
    scatter_vector,
)

__all__ = [
    "HaloPlan",
    "RankHalo",
    "build_halo_plan",
    "cached_halo_plan",
    "PhaseCosts",
    "phase_costs",
    "SCHEMES",
    "SIM_SCHEMES",
    "DistributedSpMVM",
    "distributed_spmv",
    "distributed_spmm",
    "scatter_vector",
    "gather_vector",
    "RankContext",
    "rank_process",
    "SimulationResult",
    "simulate_spmvm",
    "simulate_from_plan",
    "parallel_efficiency",
    "fifty_percent_point",
]
