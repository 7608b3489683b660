"""The symmetric-CSR extension (repro.sparse.symmetric)."""

import numpy as np
import pytest

from repro.model import code_balance
from repro.sparse import CSRMatrix, SymmetricCSR, spmv_symmetric, symmetric_code_balance


def test_symmetric_storage_halves_memory(hmep_tiny):
    sym = SymmetricCSR.from_csr(hmep_tiny)
    assert sym.memory_bytes() < 0.65 * hmep_tiny.memory_bytes()
    assert sym.nnz_full == hmep_tiny.nnz


def test_symmetric_spmv_matches_full(hmep_tiny, rng):
    sym = SymmetricCSR.from_csr(hmep_tiny)
    x = rng.standard_normal(hmep_tiny.nrows)
    assert np.allclose(spmv_symmetric(sym, x), hmep_tiny @ x, atol=1e-11)
    assert np.allclose(sym.matvec(x), hmep_tiny @ x, atol=1e-11)


def test_symmetric_roundtrip(samg_tiny):
    sym = SymmetricCSR.from_csr(samg_tiny, tol=1e-9)
    back = sym.to_full()
    assert np.allclose(back.to_dense(), samg_tiny.to_dense(), atol=1e-12)


def test_symmetric_rejects_asymmetric():
    A = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricCSR.from_csr(A)
    with pytest.raises(ValueError, match="square"):
        SymmetricCSR.from_csr(CSRMatrix.from_dense(np.ones((2, 3))))


def test_symmetric_spmv_validates_shape(hmep_tiny):
    sym = SymmetricCSR.from_csr(hmep_tiny)
    with pytest.raises(ValueError, match="shape"):
        spmv_symmetric(sym, np.zeros(3))


def test_symmetric_code_balance_nearly_halved():
    # paper Sect. 1.3.1: "reduced by almost a factor of two"
    full = code_balance(15.0)
    sym = symmetric_code_balance(15.0)
    assert 0.5 < sym / full < 0.7
    # kappa contributes only half (charged per stored entry)
    assert symmetric_code_balance(15.0, 2.5) - sym == pytest.approx(2.5 / 4.0)
