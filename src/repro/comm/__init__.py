"""Communication planning: the direct and the node-aware halo-exchange plan kinds."""

from repro.comm.exec import PLAN_TAG_BASE, RankExchange
from repro.comm.plan import (
    PHASES,
    PLAN_KINDS,
    CommPlan,
    NodeEdge,
    PlanMessage,
    PlanValidationError,
    RankScript,
    Relay,
    build_comm_plan,
    cached_comm_plan,
)
from repro.comm.sim import SimExchange
from repro.comm.stats import (
    PlanComparison,
    PlanStats,
    compare_plans,
    plan_stats,
    predicted_exchange_seconds,
)

__all__ = [
    "PLAN_KINDS",
    "PHASES",
    "PLAN_TAG_BASE",
    "PlanValidationError",
    "PlanMessage",
    "Relay",
    "RankScript",
    "NodeEdge",
    "CommPlan",
    "build_comm_plan",
    "cached_comm_plan",
    "SimExchange",
    "RankExchange",
    "PlanStats",
    "PlanComparison",
    "plan_stats",
    "compare_plans",
    "predicted_exchange_seconds",
]
