"""spMVM kernels: full, accumulate, split, traffic accounting."""

import numpy as np
import pytest

from repro.model import code_balance, code_balance_split
from repro.sparse import CSRMatrix, flops, spmv, spmv_add, spmv_split, spmv_traffic


def _split(d, is_local):
    """The local part of dense *d* (columns where *is_local*, full column
    space) and the remote part with its columns compressed to a halo
    buffer, as the halo plan lays them out; plus the halo columns."""
    halo_cols = np.flatnonzero(~is_local & (d != 0).any(axis=0))
    local = CSRMatrix.from_dense(d * is_local)
    remote = CSRMatrix.from_dense(d[:, halo_cols])
    return local, remote, halo_cols


@pytest.fixture()
def mat_and_x(rng):
    d = (rng.random((40, 40)) < 0.2) * rng.standard_normal((40, 40))
    return CSRMatrix.from_dense(d), d, rng.standard_normal(40)


def test_spmv_matches_dense(mat_and_x):
    m, d, x = mat_and_x
    assert np.allclose(spmv(m, x), d @ x)


def test_spmv_empty_rows():
    m = CSRMatrix(np.array([0, 0, 1, 1]), np.array([0]), np.array([3.0]), ncols=2)
    y = spmv(m, np.array([2.0, 1.0]))
    assert y.tolist() == [0.0, 6.0, 0.0]


def test_spmv_zero_matrix():
    m = CSRMatrix(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), ncols=5)
    assert np.all(spmv(m, np.ones(5)) == 0)


def test_spmv_add_accumulates(mat_and_x):
    m, d, x = mat_and_x
    out = np.ones(40)
    spmv_add(m, x, out)
    assert np.allclose(out, 1.0 + d @ x)


def test_spmv_split_equals_full(mat_and_x, rng):
    _m, d, x = mat_and_x
    local, remote, halo_cols = _split(d, rng.random(40) < 0.7)
    y = spmv_split(local, remote, x, x[halo_cols])
    assert np.allclose(y, d @ x)


def test_flops_two_per_nonzero(mat_and_x):
    m, _, _ = mat_and_x
    assert flops(m) == 2 * m.nnz


def test_traffic_matches_code_balance_square():
    # For a square matrix, traffic / flops must equal Eq. 1 exactly
    m = CSRMatrix.from_dense(np.eye(50) + np.diag(np.ones(49), 1))
    for kappa in (0.0, 2.5):
        b = spmv_traffic(m, kappa=kappa) / flops(m)
        # direct identity: (12+k)nnz + 16n + 8n over 2nnz
        expected = ((12 + kappa) * m.nnz + 24 * m.nrows) / (2 * m.nnz)
        assert b == pytest.approx(expected)
        assert b == pytest.approx(code_balance(m.nnzr, kappa))


def test_traffic_split_matches_eq2():
    m = CSRMatrix.from_dense(np.eye(50) + np.diag(np.ones(49), 1))
    b_split = spmv_traffic(m, split=True) / flops(m)
    assert b_split == pytest.approx(code_balance_split(m.nnzr, 0.0))


def test_traffic_rejects_negative_kappa():
    m = CSRMatrix.identity(3)
    with pytest.raises(ValueError, match="kappa"):
        spmv_traffic(m, kappa=-1.0)


# ----------------------------------------------------------------------
# out-buffer validation: one helper, one contract, every kernel
# ----------------------------------------------------------------------
def test_spmv_rejects_non_float64_out(mat_and_x):
    """Regression: spmv used to allocate a temporary and lossily
    down-cast it into a float32 ``out`` — precision silently lost and an
    allocation exactly where the preallocated API promises none."""
    m, _d, x = mat_and_x
    with pytest.raises(ValueError, match="out must have dtype float64"):
        spmv(m, x, out=np.empty(40, dtype=np.float32))


def test_spmv_add_rejects_non_float64_out(mat_and_x):
    m, _d, x = mat_and_x
    with pytest.raises(ValueError, match="out must have dtype float64"):
        spmv_add(m, x, np.zeros(40, dtype=np.int64))


def test_spmv_split_validates_out(mat_and_x, rng):
    """Regression: spmv_split never checked a caller-provided out."""
    _m, d, x = mat_and_x
    local, remote_c, halo_cols = _split(d, rng.random(40) < 0.7)
    x_remote = x[halo_cols]
    with pytest.raises(ValueError, match="out must have shape"):
        spmv_split(local, remote_c, x, x_remote, out=np.zeros(41))
    with pytest.raises(ValueError, match="out must have dtype float64"):
        spmv_split(local, remote_c, x, x_remote, out=np.zeros(40, dtype=np.float32))


def test_spmv_rejects_non_array_out(mat_and_x):
    m, _d, x = mat_and_x
    with pytest.raises(ValueError, match="out must be a numpy array"):
        spmv(m, x, out=[0.0] * 40)


# ----------------------------------------------------------------------
# kernel accuracy: the cross-row cancellation bug (fixed via reduceat)
# ----------------------------------------------------------------------
def test_spmv_no_cross_row_cancellation():
    """Regression: cumsum-differencing carried 1e16 into the next row's
    difference and returned [1e16, 0.0]; the true second row sum is 2.0."""
    m = CSRMatrix.from_dense(np.array([[1e16, 1.0], [1.0, 1.0]]))
    y = spmv(m, np.ones(2))
    assert y.tolist() == [1e16, 2.0]


def test_spmv_add_no_cross_row_cancellation():
    m = CSRMatrix.from_dense(np.array([[1e16, 1.0], [1.0, 1.0]]))
    out = np.zeros(2)
    spmv_add(m, np.ones(2), out)
    assert out.tolist() == [1e16, 2.0]


def test_spmv_huge_entry_then_empty_row():
    # empty row after a huge-magnitude row must stay exactly 0
    m = CSRMatrix(
        np.array([0, 2, 2, 4]),
        np.array([0, 1, 0, 1]),
        np.array([1e16, 1.0, 3.0, 4.0]),
        ncols=2,
    )
    y = spmv(m, np.ones(2))
    assert y.tolist() == [1e16, 0.0, 7.0]


@pytest.mark.parametrize("seed", range(5))
def test_spmv_mixed_magnitudes_rowwise_bound(seed):
    """Property: per-row error of spmv and spmv_split stays within a
    condition-number-scaled bound for magnitudes spanning 1e-8..1e16."""
    rng = np.random.default_rng(seed)
    n = 60
    mask = rng.random((n, n)) < 0.25
    mags = 10.0 ** rng.uniform(-8, 16, (n, n))
    d = mask * mags * rng.choice([-1.0, 1.0], (n, n))
    x = 10.0 ** rng.uniform(-8, 16, n) * rng.choice([-1.0, 1.0], n)
    m = CSRMatrix.from_dense(d)
    bound = 1e-10 * (np.abs(d) @ np.abs(x)) + 1e-300
    assert np.all(np.abs(spmv(m, x) - d @ x) <= bound)
    local, remote_c, halo_cols = _split(d, rng.random(n) < 0.6)
    y = spmv_split(local, remote_c, x, x[halo_cols])
    assert np.all(np.abs(y - d @ x) <= bound)


@pytest.mark.parametrize("nparts", [1, 2, 3, 5])
def test_halo_plan_split_kernels_reproduce_unsplit_product(nparts, rng):
    """build_halo_plan's per-rank local/remote matrices applied with the
    split kernel reproduce the unsplit product bit-for-bit on integer
    data (exact fp addition makes summation order immaterial)."""
    from repro.core import build_halo_plan
    from repro.sparse.partition import partition_matrix

    n = 48
    d = (rng.random((n, n)) < 0.2) * rng.integers(-8, 9, (n, n)).astype(float)
    A = CSRMatrix.from_dense(d)
    x = rng.integers(-4, 5, n).astype(float)
    reference = spmv(A, x)
    plan = build_halo_plan(A, partition_matrix(A, nparts, strategy="rows"))
    y = np.empty(n)
    for rank in plan.ranks:
        y[rank.row_lo : rank.row_hi] = spmv_split(
            rank.A_local, rank.A_remote, x[rank.row_lo : rank.row_hi], x[rank.halo_columns]
        )
    assert np.array_equal(y, reference)
    assert np.array_equal(y, d @ x)
