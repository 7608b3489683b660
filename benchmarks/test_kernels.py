"""Raw kernels on the benchmark matrix.

Not a paper figure — these keep the library's own kernels honest at
the figure suite's scale: the pure-numpy CSR kernel must stay within a
small factor of scipy.sparse (the C implementation), and the split
kernel, the halo-plan builder and the mpilite path must run on it.
"""

import numpy as np
import pytest

from repro.core import build_halo_plan, distributed_spmv
from repro.sparse import partition_matrix, spmv, spmv_split


@pytest.fixture(scope="module")
def x_vec(hmep_matrix):
    return np.random.default_rng(0).standard_normal(hmep_matrix.ncols)


def test_csr_spmv(hmep_matrix, x_vec):
    y = spmv(hmep_matrix, x_vec)
    assert y.shape == (hmep_matrix.nrows,)


def test_spmv_within_factor_of_scipy(hmep_matrix, x_vec):
    import time

    sp = hmep_matrix.to_scipy()

    def best(fn, n=5):
        out = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - t0)
        return out

    ours = best(lambda: spmv(hmep_matrix, x_vec))
    theirs = best(lambda: sp @ x_vec)
    # segmented-sum numpy vs compiled CSR: stay within ~12x
    assert ours < 12 * theirs, f"ours {ours * 1e3:.2f} ms vs scipy {theirs * 1e3:.2f} ms"


def test_split_kernel(hmep_matrix, x_vec):
    plan = build_halo_plan(hmep_matrix, partition_matrix(hmep_matrix, 4), with_matrices=True)
    rh = plan.ranks[1]
    xl = x_vec[rh.row_lo : rh.row_hi]
    xh = x_vec[rh.halo_columns]
    y = spmv_split(rh.A_local, rh.A_remote, xl, xh)
    assert y.shape == (rh.n_rows,)


def test_halo_plan_construction(hmep_matrix):
    partition = partition_matrix(hmep_matrix, 64)
    plan = build_halo_plan(hmep_matrix, partition, with_matrices=False)
    assert plan.nranks == 64


def test_distributed_spmv_mpilite(hmep_matrix, x_vec):
    y = distributed_spmv(hmep_matrix, x_vec, 4, scheme="task_mode")
    assert np.allclose(y, hmep_matrix @ x_vec, atol=1e-10)
