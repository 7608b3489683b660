"""Kronecker products and sparse matmul against dense references."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, kron, kron_diag_left, matmul


@pytest.fixture()
def pair(rng):
    a = (rng.random((4, 5)) < 0.5) * rng.standard_normal((4, 5))
    b = (rng.random((3, 6)) < 0.5) * rng.standard_normal((3, 6))
    return a, b


def test_kron_matches_numpy(pair):
    a, b = pair
    k = kron(CSRMatrix.from_dense(a), CSRMatrix.from_dense(b))
    assert np.allclose(k.to_dense(), np.kron(a, b))


def test_kron_empty_factor():
    a = CSRMatrix.from_dense(np.zeros((2, 2)))
    b = CSRMatrix.identity(3)
    k = kron(a, b)
    assert k.shape == (6, 6)
    assert k.nnz == 0


def test_kron_diag_left_matches_full_kron(rng):
    d = rng.standard_normal(4)
    d[1] = 0.0  # must handle zero diagonal entries
    b = (rng.random((3, 3)) < 0.6) * rng.standard_normal((3, 3))
    fast = kron_diag_left(d, CSRMatrix.from_dense(b))
    ref = np.kron(np.diag(d), b)
    assert np.allclose(fast.to_dense(), ref)


def test_kron_sum(rng):
    # A ⊗ I + I ⊗ B, composed the way the Hubbard builder composes the
    # two spin species (repro.matrices.fock)
    a = rng.standard_normal((3, 3)) * (rng.random((3, 3)) < 0.7)
    b = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.7)
    A, B = CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)
    ks = kron(A, CSRMatrix.identity(4)).add(kron(CSRMatrix.identity(3), B))
    ref = np.kron(a, np.eye(4)) + np.kron(np.eye(3), b)
    assert np.allclose(ks.to_dense(), ref)


def test_matmul_matches_dense(pair, rng):
    a, b = pair
    c = (rng.random((5, 3)) < 0.5) * rng.standard_normal((5, 3))
    prod = matmul(CSRMatrix.from_dense(a), CSRMatrix.from_dense(c))
    assert np.allclose(prod.to_dense(), a @ c)


def test_matmul_dimension_mismatch(pair):
    a, b = pair
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(CSRMatrix.from_dense(a), CSRMatrix.from_dense(b))


def test_matmul_with_empty():
    a = CSRMatrix.from_dense(np.zeros((3, 4)))
    b = CSRMatrix.identity(4)
    assert matmul(a, b).nnz == 0


def test_matmul_chain_galerkin(rng):
    # the AMG use case: P^T A P stays symmetric for symmetric A
    a_dense = rng.standard_normal((6, 6))
    a_dense = a_dense + a_dense.T
    p_dense = (rng.random((6, 3)) < 0.6) * rng.standard_normal((6, 3))
    A = CSRMatrix.from_dense(a_dense)
    P = CSRMatrix.from_dense(p_dense)
    coarse = matmul(matmul(P.transpose(), A), P)
    assert np.allclose(coarse.to_dense(), p_dense.T @ a_dense @ p_dense)
    assert coarse.is_symmetric(tol=1e-12)
