"""Kronecker products of sparse matrices.

Tensor-product Hamiltonians (electrons ⊗ phonons, Sect. 1.3.1) are most
naturally assembled as sums of Kronecker products; this module provides
the vectorised product plus a fast special case for a diagonal left
factor, which is what the Holstein coupling term ``n_i ⊗ (b_i† + b_i)``
needs.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["kron", "kron_diag_left"]


def kron(A: CSRMatrix, B: CSRMatrix) -> CSRMatrix:
    """Kronecker product ``A ⊗ B`` of two CSR matrices.

    Entry ``(i*p + k, j*q + l) = a_ij * b_kl`` for ``B`` of shape
    ``(p, q)``.  The result has ``nnz(A) * nnz(B)`` entries and is built
    in one vectorised outer-product pass.
    """
    m, n = A.shape
    p, q = B.shape
    a = A.to_coo()
    b = B.to_coo()
    if a.nnz == 0 or b.nnz == 0:
        return COOMatrix.empty(m * p, n * q).to_csr()
    rows = (a.row[:, None] * np.int64(p) + b.row[None, :]).ravel()
    cols = (a.col[:, None] * np.int64(q) + b.col[None, :]).ravel()
    vals = (a.val[:, None] * b.val[None, :]).ravel()
    return COOMatrix(m * p, n * q, rows, cols, vals).to_csr()


def kron_diag_left(diag: np.ndarray, B: CSRMatrix) -> CSRMatrix:
    """``diag(d) ⊗ B`` without materialising the diagonal matrix.

    Rows ``i*p .. (i+1)*p`` of the result are ``d[i] * B`` shifted to the
    block column ``i``; zero diagonal entries produce empty blocks.
    """
    d = np.asarray(diag, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError("diag must be one-dimensional")
    m = d.size
    p, q = B.shape
    nz = np.flatnonzero(d != 0.0)
    if nz.size == 0 or B.nnz == 0:
        return COOMatrix.empty(m * p, m * q).to_csr()
    b = B.to_coo()
    rows = (nz[:, None] * np.int64(p) + b.row[None, :]).ravel()
    cols = (nz[:, None] * np.int64(q) + b.col[None, :]).ravel()
    vals = (d[nz][:, None] * b.val[None, :]).ravel()
    return COOMatrix(m * p, m * q, rows, cols, vals).to_csr()
