"""Kronecker products against dense references."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, kron, kron_diag_left


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
