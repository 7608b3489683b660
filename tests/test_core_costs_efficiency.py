"""Phase cost accounting and parallel-efficiency helpers."""

import numpy as np
import pytest

from repro.core import build_halo_plan, fifty_percent_point, parallel_efficiency, phase_costs
from repro.matrices import random_sparse
from repro.model import code_balance, code_balance_split
from repro.sparse import partition_matrix


@pytest.fixture(scope="module")
def halo():
    A = random_sparse(200, nnzr=8, seed=4)
    plan = build_halo_plan(A, partition_matrix(A, 4), with_matrices=False)
    return plan.ranks[1]


def test_split_total_equals_full_plus_extra_result_write(halo):
    c = phase_costs(halo, kappa=0.0)
    # the split kernel (local + remote phases) writes the result twice
    assert c.local_spmv + c.remote_spmv == pytest.approx(c.full_spmv + 16.0 * halo.n_rows)


def test_gather_cost_proportional_to_send_elements(halo):
    c = phase_costs(halo)
    assert c.gather == 16.0 * halo.n_send_elements


def test_kappa_only_charged_once(halo):
    c0 = phase_costs(halo, kappa=0.0)
    c2 = phase_costs(halo, kappa=2.0)
    assert c2.full_spmv - c0.full_spmv == pytest.approx(2.0 * halo.nnz)
    assert c2.local_spmv - c0.local_spmv == pytest.approx(2.0 * halo.nnz_local)
    assert c2.remote_spmv == c0.remote_spmv  # halo buffer is cache-resident


def test_costs_reduce_to_code_balance_without_communication():
    # a diagonal-only rank (no halo) must reproduce Eq. 1 / Eq. 2 exactly
    A = random_sparse(100, nnzr=5, seed=1)
    plan = build_halo_plan(A, partition_matrix(A, 1), with_matrices=False)
    rh = plan.ranks[0]
    c = phase_costs(rh, kappa=1.5)
    flops = 2.0 * rh.nnz
    assert c.full_spmv / flops == pytest.approx(code_balance(A.nnzr, 1.5))
    split = c.local_spmv + c.remote_spmv
    assert split / flops == pytest.approx(code_balance_split(A.nnzr, 1.5))


def test_negative_kappa_rejected(halo):
    with pytest.raises(ValueError):
        phase_costs(halo, kappa=-0.1)


# ----------------------------------------------------------------------
# efficiency
# ----------------------------------------------------------------------
def test_parallel_efficiency():
    assert parallel_efficiency(10.0, 2, 5.0) == pytest.approx(1.0)
    assert parallel_efficiency(5.0, 2, 5.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 0, 5.0)


def test_fifty_percent_point_interpolates():
    nodes = [1, 2, 4, 8]
    perf = [5.0, 10.0, 16.0, 18.0]  # eff: 1.0, 1.0, 0.8, 0.45
    fp = fifty_percent_point(nodes, perf, 5.0)
    assert 4.0 < fp < 8.0


def test_fifty_percent_point_none_when_efficient():
    fp = fifty_percent_point([1, 2, 4], [5.0, 9.9, 19.0], 5.0)
    assert fp is None


def test_fifty_percent_point_first_point_below():
    fp = fifty_percent_point([4, 8], [8.0, 9.0], 5.0)  # already 0.4 at 4 nodes
    assert fp == 4.0
