"""Sect. 2 / Eqs. 1-2 — κ determination, split penalty, and a *real*
node-level analysis of the host running this library.

The host analysis mirrors the paper's method end-to-end: measure STREAM
triad (practical bandwidth ceiling), measure the spMVM kernel, divide
the drawn bandwidth by the measured performance to obtain the effective
code balance, and solve Eq. 1 for κ.
"""

import time

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_kappa_table
from repro.model import kappa_from_measurement, measure_host_triad
from repro.sparse import flops, spmv, spmv_traffic
from repro.util import Table


@pytest.fixture(scope="module")
def table():
    return run_kappa_table()


def test_kappa_table_report(table):
    write_report("kappa_table_sect2", table.render())


def test_paper_kappa_arithmetic(table):
    assert table.kappa_measured == pytest.approx(2.5, abs=0.05)
    assert table.max_performance_stream == pytest.approx(3.12, abs=0.02)
    assert table.max_performance_kappa0 == pytest.approx(2.66, abs=0.02)
    assert 0.05 < table.hmep_bad_performance_drop < 0.12


def test_split_penalty_range(table):
    # paper: "between 15 % and 8 %, and even less if κ > 0"
    assert 0.12 <= table.split_penalties[7.0][0.0] <= 0.15
    assert 0.06 <= table.split_penalties[15.0][0.0] <= 0.09
    for nnzr in table.split_penalties:
        assert table.split_penalties[nnzr][2.5] < table.split_penalties[nnzr][0.0]


def test_host_node_level_analysis(hmep_matrix):
    """The paper's Sect. 2 methodology applied to *this* machine."""
    import numpy as np

    triad = measure_host_triad(n=10_000_000, repetitions=3)
    x = np.random.default_rng(0).standard_normal(hmep_matrix.ncols)
    # warm-up + best-of-N timing of the spMVM kernel
    spmv(hmep_matrix, x)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        spmv(hmep_matrix, x)
        best = min(best, time.perf_counter() - t0)
    perf = flops(hmep_matrix) / best
    drawn = spmv_traffic(hmep_matrix, kappa=0.0) / best  # lower bound on bytes
    kappa_host = kappa_from_measurement(perf, drawn, hmep_matrix.nnzr)
    t = Table(["quantity", "value"], title="host node-level analysis (paper Sect. 2 method)",
              float_fmt=".3f")
    t.add_row(["STREAM triad [GB/s]", triad.bandwidth_gb])
    t.add_row(["spMVM performance [GFlop/s]", perf / 1e9])
    t.add_row(["spMVM drawn bandwidth (compulsory) [GB/s]", drawn / 1e9])
    t.add_row(["effective kappa (lower bound)", kappa_host])
    t.add_row(["spMVM / STREAM bandwidth ratio", drawn / triad.bandwidth])
    write_report("host_node_analysis", t.render())
    assert perf > 0
    assert triad.bandwidth > drawn * 0.05  # sanity: same order of magnitude
