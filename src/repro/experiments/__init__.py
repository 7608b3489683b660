"""Per-figure/table reproduction harnesses (see DESIGN.md experiment index)."""

from repro.experiments.calibration import (
    DEFAULT_NODE_COUNTS,
    KAPPA,
    REDUCED_EAGER_THRESHOLD,
    TORUS_MESSAGE_OVERHEAD,
    kappa_for,
)
from repro.experiments.comm_plans import (
    CommPlansResult,
    PlanScalingPoint,
    PlanStatRow,
    run_comm_plans,
)
from repro.experiments.comm_volume import CommVolumeResult, VolumeRow, run_comm_volume
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, NodeScalingRow, run_fig3
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.kappa_table import KappaTableResult, run_kappa_table
from repro.experiments.kappa_prediction import KappaPredictionResult, run_kappa_prediction
from repro.experiments.load_balance import BalanceRow, LoadBalanceResult, run_load_balance
from repro.experiments.progress_probe import ProbeResult, run_progress_probe
from repro.experiments.scaling import ScalingPoint, ScalingStudy, run_scaling_study

__all__ = [
    "KAPPA",
    "REDUCED_EAGER_THRESHOLD",
    "DEFAULT_NODE_COUNTS",
    "kappa_for",
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "Fig3Result",
    "NodeScalingRow",
    "run_fig3",
    "Fig4Result",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "KappaTableResult",
    "run_kappa_table",
    "BalanceRow",
    "LoadBalanceResult",
    "run_load_balance",
    "KappaPredictionResult",
    "run_kappa_prediction",
    "TORUS_MESSAGE_OVERHEAD",
    "CommPlansResult",
    "PlanScalingPoint",
    "PlanStatRow",
    "run_comm_plans",
    "CommVolumeResult",
    "VolumeRow",
    "run_comm_volume",
    "ProbeResult",
    "run_progress_probe",
    "ScalingPoint",
    "ScalingStudy",
    "run_scaling_study",
]
