"""Node-level performance models: code balance (Eqs. 1-2), STREAM, saturation curves.

Communication-plan statistics (:mod:`repro.comm`) are re-exported here
lazily so modelling code can say ``from repro.model import plan_stats``
without this package importing the comm subsystem at startup (and
without an import cycle — ``repro.comm`` consumers include the core)."""

from repro.model.cache import (
    CacheConfig,
    KappaPrediction,
    simulate_rhs_traffic,
)
from repro.model.code_balance import (
    CodeBalanceModel,
    block_speedup,
    code_balance,
    code_balance_block,
    code_balance_block_split,
    code_balance_split,
    kappa_from_measurement,
    max_performance,
    split_penalty,
)
from repro.model.saturation import SaturationCurve
from repro.model.stream import (
    WRITE_ALLOCATE_FACTOR,
    TriadResult,
    measure_host_triad,
    triad_traffic,
)

#: Names resolved lazily from :mod:`repro.comm` (PEP 562).
_COMM_EXPORTS = (
    "PlanStats",
    "PlanComparison",
    "plan_stats",
    "compare_plans",
    "predicted_exchange_seconds",
)


def __getattr__(name: str):
    if name in _COMM_EXPORTS:
        import repro.comm as _comm

        return getattr(_comm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_COMM_EXPORTS))


__all__ = [
    "PlanStats",
    "PlanComparison",
    "plan_stats",
    "compare_plans",
    "predicted_exchange_seconds",
    "CacheConfig",
    "KappaPrediction",
    "simulate_rhs_traffic",
    "CodeBalanceModel",
    "code_balance",
    "code_balance_split",
    "code_balance_block",
    "code_balance_block_split",
    "block_speedup",
    "kappa_from_measurement",
    "max_performance",
    "split_penalty",
    "SaturationCurve",
    "WRITE_ALLOCATE_FACTOR",
    "TriadResult",
    "measure_host_triad",
    "triad_traffic",
]
