"""Batched multi-RHS kernels: spmm family vs per-column spmv."""

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    spmm,
    spmm_add,
    spmv,
)


@pytest.fixture()
def mat_and_block(rng):
    d = (rng.random((40, 40)) < 0.2) * rng.standard_normal((40, 40))
    return CSRMatrix.from_dense(d), d, rng.standard_normal((40, 8))


def test_spmm_matches_dense(mat_and_block):
    m, d, X = mat_and_block
    assert np.allclose(spmm(m, X), d @ X)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_spmm_bit_identical_to_columnwise_spmv(rng, k):
    d = (rng.random((60, 50)) < 0.15) * rng.standard_normal((60, 50))
    m = CSRMatrix.from_dense(d)
    X = rng.standard_normal((50, k))
    Y = spmm(m, X)
    assert Y.shape == (60, k)
    for j in range(k):
        assert np.array_equal(Y[:, j], spmv(m, X[:, j]))


def test_spmm_mixed_magnitudes_column_for_column(rng):
    # the accuracy acceptance bar: mixed-magnitude entries must not leak
    # across rows or columns — each column agrees with its spmv to 1e-12
    n, k = 30, 5
    d = (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
    d *= 10.0 ** rng.integers(-8, 9, size=(n, n))
    m = CSRMatrix.from_dense(d)
    X = rng.standard_normal((n, k))
    Y = spmm(m, X)
    for j in range(k):
        ref = spmv(m, X[:, j])
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.all(np.abs(Y[:, j] - ref) / scale < 1e-12)


def test_spmm_empty_rows():
    m = CSRMatrix(np.array([0, 0, 1, 1]), np.array([0]), np.array([3.0]), ncols=2)
    Y = spmm(m, np.array([[2.0, -1.0], [1.0, 5.0]]))
    assert Y.tolist() == [[0.0, 0.0], [6.0, -3.0], [0.0, 0.0]]


def test_spmm_zero_matrix():
    m = CSRMatrix(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), ncols=5)
    assert np.all(spmm(m, np.ones((5, 3))) == 0)


def test_spmm_out_in_place(mat_and_block):
    m, d, X = mat_and_block
    out = np.empty((40, 8))
    res = spmm(m, X, out=out)
    assert res is out
    assert np.allclose(out, d @ X)


def test_spmm_out_shape_mismatch(mat_and_block):
    m, _d, X = mat_and_block
    with pytest.raises(ValueError, match="out must have shape"):
        spmm(m, X, out=np.empty((40, 3)))


def test_spmm_rejects_vector_input(mat_and_block):
    m, _d, _X = mat_and_block
    with pytest.raises(ValueError, match="block"):
        spmm(m, np.ones(40))


def test_spmm_rejects_non_float64_out(mat_and_block):
    """Regression: spmm used to allocate a temporary and lossily
    down-cast it into a non-float64 ``out`` instead of raising."""
    m, _d, X = mat_and_block
    with pytest.raises(ValueError, match="out must have dtype float64"):
        spmm(m, X, out=np.empty((40, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="out must have dtype float64"):
        spmm_add(m, X, np.zeros((40, 8), dtype=np.int32))


def test_spmm_add_accumulates(mat_and_block):
    m, d, X = mat_and_block
    out = np.ones((40, 8))
    spmm_add(m, X, out)
    assert np.allclose(out, 1.0 + d @ X)


def test_spmm_add_with_empty_rows():
    # the masked (ragged) path of the accumulate kernel: empty rows must
    # keep their prior contents untouched
    m = CSRMatrix(np.array([0, 0, 1, 1]), np.array([0]), np.array([3.0]), ncols=2)
    out = np.full((3, 2), 5.0)
    spmm_add(m, np.array([[2.0, -1.0], [1.0, 5.0]]), out)
    assert out.tolist() == [[5.0, 5.0], [11.0, 2.0], [5.0, 5.0]]


def test_spmv_out_written_in_place(mat_and_block):
    m, d, X = mat_and_block
    x = X[:, 0].copy()
    out = np.full(40, np.nan)
    res = spmv(m, x, out=out)
    assert res is out
    assert np.allclose(out, d @ x)
    # bit-identical to the allocating path
    assert np.array_equal(out, spmv(m, x))


def test_spmv_out_with_empty_rows():
    m = CSRMatrix(np.array([0, 0, 1, 1]), np.array([0]), np.array([3.0]), ncols=2)
    out = np.full(3, np.nan)
    spmv(m, np.array([2.0, 1.0]), out=out)
    assert out.tolist() == [0.0, 6.0, 0.0]
