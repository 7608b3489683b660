"""Figure-suite fixtures and report plumbing.

Every paper figure/table has one module here, and the suite runs at one
scale (``medium``).  Each module renders its table, writes it to
``benchmarks/output/`` (the files EXPERIMENTS.md cites) and asserts the
paper's claims on it.  Expensive artifacts (medium-scale matrices, the
Figs. 5/6 sweeps) are session fixtures so the cost is paid once.
``pytest benchmarks --ignore=benchmarks/ledger`` regenerates the whole
evaluation section; how fast the library runs is the ledger's question
(``benchmarks/ledger``), not this suite's.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import run_fig5, run_fig6

_OUTPUT_DIR = Path(__file__).parent / "output"


def write_report(name: str, text: str) -> None:
    """Persist a rendered reproduction table and echo it to stdout."""
    _OUTPUT_DIR.mkdir(exist_ok=True)
    (_OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{'=' * 74}\n{name}\n{'=' * 74}\n{text}")


@pytest.fixture(scope="session")
def fig5_study():
    """The full Fig. 5 sweep (HMeP strong scaling) — computed once."""
    return run_fig5(scale="medium")


@pytest.fixture(scope="session")
def fig6_study():
    """The full Fig. 6 sweep (sAMG strong scaling) — computed once."""
    return run_fig6(scale="medium")


@pytest.fixture(scope="session")
def hmep_matrix():
    """The HMeP matrix at benchmark scale."""
    from repro.matrices import get_matrix

    return get_matrix("HMeP", "medium").build_cached()
