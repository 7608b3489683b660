"""Benchmark-session fixtures and report plumbing.

Every paper figure/table has one benchmark module.  Expensive artifacts
(medium-scale matrices, full scaling sweeps) are session fixtures so the
cost is paid once; each module prints its reproduction table so that
``pytest benchmarks/ --benchmark-only -s`` regenerates the whole
evaluation section in one run.  Rendered reports are also written to
``benchmarks/output/`` for EXPERIMENTS.md.

Scale control: set ``REPRO_BENCH_SCALE=small`` for a quick (~1 min)
sanity sweep instead of the full medium-scale run (~2.5 min on a
2-vCPU host).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import KAPPA, run_fig5, run_fig6

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "medium")
_OUTPUT_DIR = Path(__file__).parent / "output"

#: Strict paper-shape assertions only hold at the full benchmark scale;
#: the quick small-scale mode just regenerates the tables.
requires_full_scale = pytest.mark.skipif(
    BENCH_SCALE != "medium",
    reason="paper-shape assertion calibrated for REPRO_BENCH_SCALE=medium",
)


def write_report(name: str, text: str) -> None:
    """Persist a rendered reproduction table and echo it to stdout."""
    _OUTPUT_DIR.mkdir(exist_ok=True)
    (_OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{'=' * 74}\n{name}\n{'=' * 74}\n{text}")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The matrix scale benchmarks run at."""
    return BENCH_SCALE


_SWEEP_KWARGS = (
    {} if BENCH_SCALE == "medium" else {"node_counts": (1, 2, 4, 8), "max_ranks": 100}
)


@pytest.fixture(scope="session")
def fig5_study():
    """The full Fig. 5 sweep (HMeP strong scaling) — computed once."""
    return run_fig5(scale=BENCH_SCALE, **_SWEEP_KWARGS)


@pytest.fixture(scope="session")
def fig6_study():
    """The full Fig. 6 sweep (sAMG strong scaling) — computed once."""
    return run_fig6(scale=BENCH_SCALE, **_SWEEP_KWARGS)


@pytest.fixture(scope="session")
def hmep_matrix():
    """The HMeP matrix at benchmark scale."""
    from repro.matrices import get_matrix

    return get_matrix("HMeP", BENCH_SCALE).build_cached()


@pytest.fixture(scope="session")
def samg_matrix():
    """The sAMG matrix at benchmark scale."""
    from repro.matrices import get_matrix

    return get_matrix("sAMG", BENCH_SCALE).build_cached()
