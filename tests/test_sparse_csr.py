"""CSR container: invariants, numerics, structure manipulation."""

import numpy as np
import pytest

from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture()
def small_dense(rng):
    return (rng.random((25, 18)) < 0.25) * rng.standard_normal((25, 18))


def test_validation_rejects_bad_row_ptr():
    with pytest.raises(ValueError, match="row_ptr\\[0\\]"):
        CSRMatrix(np.array([1, 2]), np.array([0]), np.array([1.0]), ncols=3)
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]), ncols=3)
    with pytest.raises(ValueError, match="nnz"):
        CSRMatrix(np.array([0, 5]), np.array([0]), np.array([1.0]), ncols=3)


def test_validation_rejects_unsorted_columns():
    with pytest.raises(ValueError, match="strictly increasing"):
        CSRMatrix(np.array([0, 2]), np.array([1, 0]), np.array([1.0, 2.0]), ncols=3)


def test_validation_rejects_out_of_range_column():
    with pytest.raises(ValueError, match="out of range"):
        CSRMatrix(np.array([0, 1]), np.array([4]), np.array([1.0]), ncols=3)


def test_validation_allows_empty_leading_and_trailing_rows():
    # rows 0 and 2 empty — regression test for the boundary handling
    m = CSRMatrix(np.array([0, 0, 2, 2]), np.array([0, 1]), np.array([1.0, 2.0]), ncols=2)
    assert m.row_nnz().tolist() == [0, 2, 0]


def test_shape_nnz_nnzr(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    assert m.shape == small_dense.shape
    assert m.nnz == np.count_nonzero(small_dense)
    assert m.nnzr == pytest.approx(m.nnz / 25)


def test_matvec_matches_dense(small_dense, rng):
    m = CSRMatrix.from_dense(small_dense)
    x = rng.standard_normal(18)
    assert np.allclose(m @ x, small_dense @ x)
    out = np.empty(25)
    m.matvec(x, out=out)
    assert np.allclose(out, small_dense @ x)


def test_matvec_rejects_wrong_length(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    with pytest.raises(ValueError, match="length"):
        m.matvec(np.zeros(5))


def test_identity():
    ident = CSRMatrix.identity(4)
    x = np.arange(4.0)
    assert np.allclose(ident @ x, x)
    assert ident.nnz == 4


def test_diagonal(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    assert np.allclose(m.diagonal(), np.diag(small_dense[:, :18])[: min(25, 18)])


def test_transpose_roundtrip(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    assert np.allclose(m.transpose().to_dense(), small_dense.T)
    assert np.allclose(m.transpose().transpose().to_dense(), small_dense)


def test_is_symmetric():
    d = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert CSRMatrix.from_dense(d).is_symmetric()
    d[0, 1] = 5.0
    assert not CSRMatrix.from_dense(d).is_symmetric()
    assert not CSRMatrix.from_dense(np.ones((2, 3))).is_symmetric()


def test_scale_and_add(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    s = m.scale(2.5)
    assert np.allclose(s.to_dense(), 2.5 * small_dense)
    tot = m.add(s)
    assert np.allclose(tot.to_dense(), 3.5 * small_dense)


def test_add_shape_mismatch():
    a = CSRMatrix.identity(3)
    b = CSRMatrix.identity(4)
    with pytest.raises(ValueError, match="shape mismatch"):
        a.add(b)


def test_permute_symmetric(rng):
    d = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.4)
    m = CSRMatrix.from_dense(d)
    perm = rng.permutation(8)
    p = m.permute(perm)
    assert np.allclose(p.to_dense(), d[np.ix_(perm, perm)])


def test_permute_requires_square():
    m = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        m.permute(np.array([0, 1]))


def test_memory_bytes_accounting():
    m = CSRMatrix.identity(10)
    # 10 vals x 8 + 10 idx x 4 + 11 ptr x 8
    assert m.memory_bytes() == 80 + 40 + 88


def test_scipy_roundtrip(small_dense):
    m = CSRMatrix.from_dense(small_dense)
    sp = m.to_scipy()
    assert np.allclose(sp.toarray(), small_dense)
    back = CSRMatrix(sp.indptr, sp.indices, sp.data, ncols=sp.shape[1])
    assert np.allclose(back.to_dense(), small_dense)
