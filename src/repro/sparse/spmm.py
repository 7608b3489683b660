"""Batched multi-RHS spMVM: CSR times a dense block of k vectors.

The paper's solvers (Lanczos, JD, KPM, Chebyshev) perform thousands of
back-to-back MVMs; applying the operator to ``k`` right-hand sides at
once amortises the matrix data (``val``/``col_idx`` streamed once per
*block* instead of once per vector) and — in the distributed setting —
the per-MVM message count and latency (one halo exchange per batch).
This is the block-vector step of Schubert et al. (arXiv:1106.5908)
toward production spMVM.

Earlier revisions implemented the block kernel as a literal 2-D
analogue of the single-vector segmented sum: an ``(nnz, k)`` temporary
``val[:, None] * X[col_idx]`` reduced with ``np.add.reduceat(axis=0)``.
That formulation is *algorithmically* right and numerically identical,
but in numpy it is catastrophically slow: both the broadcast multiply
and the axis-0 ``reduceat`` run their inner loop over the tiny ``k``
axis, paying per-*nonzero* ufunc dispatch overhead instead of
per-*array*.  Measured on the benchmark matrix it inverted the block
code balance ``6/k + 12/Nnzr + kappa/2`` (:mod:`repro.model`): k = 4
cost 10x the k = 1 kernel for 4x the work, so batching *lost*
throughput (0.26-0.68x of spmv per column).

The fused kernel below keeps every inner loop ``nnz`` long: the block
is transposed once to row-per-column layout, and each column runs the
contiguous gather → in-place multiply → 1-D ``reduceat`` pipeline of
the single-vector kernel with no intermediate beyond one ``nnz``
product per column.  Per column this is *cheaper* than ``spmv``
(the transpose, the row-start bookkeeping and the Python dispatch
amortise over the k columns, and the in-place multiply drops one
``nnz`` temporary), so batching wins again — and column ``j`` of
``spmm(A, X)`` stays *bit-identical* to ``spmv(A, X[:, j])``, because
each column performs the same scalar multiplications (IEEE-754
multiplication is commutative) and the same left-to-right per-row
``reduceat`` accumulation.

That fused numpy kernel is the *definition* of the block product
(:func:`_numpy_block_rowsums`).  Where the machine has a C compiler the
same sums are executed by :mod:`repro.sparse.native` instead — one pass
over the rows with the k accumulators in registers, ``val``/``col_idx``
streamed once per block, the identical association per column, no
``nnz`` temporary and no GIL — which is the full code-balance win in
CSR itself: 2.1x (k = 4) and 4.3x (k = 16) per column over ``spmv``.

Kernels
-------
``spmm``            full block product ``C = A @ X``
``spmm_add``        accumulate ``C += A @ X``
``spmm_rows``       block product restricted to a contiguous row range
``spmm_traffic``    bytes of main-memory traffic the block extension of
                    the paper's model attributes to one block product
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

from repro.sparse import native
from repro.sparse.csr import IDX_BYTES, RESULT_BYTES, RHS_BYTES, VAL_BYTES
from repro.sparse.spmv import _csr_arrays
from repro.sparse.validate import check_out

__all__ = ["spmm", "spmm_add", "spmm_rows", "spmm_traffic"]


def _segmented_block_rowsums(
    A: "CSRMatrix",
    X: np.ndarray,
    out: np.ndarray,
    *,
    add: bool = False,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Per-column row sums of ``A.val * X[A.col_idx]``, overwriting or accumulating.

    The block face of :func:`repro.sparse.spmv._segmented_rowsums`: the
    compiled executor is asked first — the very same entry point, of
    which the vector kernel is the ``k = 1`` case, so the degenerate
    batch can never regress relative to ``spmv`` — and
    :func:`_numpy_block_rowsums` computes, to the same bits, whatever it
    does not take.
    """
    if native.rowsums(A, X, out, add, rows):
        return out
    target = out if rows is None else out[rows[0] : rows[1]]
    _numpy_block_rowsums(*_csr_arrays(A, rows), X, target, add=add)
    return out


def _numpy_block_rowsums(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    val: np.ndarray,
    X: np.ndarray,
    out: np.ndarray,
    *,
    add: bool = False,
) -> np.ndarray:
    """Fused per-column segmented row sums, bit-identical to the 1-D kernel.

    Each column gathers its RHS contiguously, multiplies ``val`` in
    place and reduces with the 1-D ``np.add.reduceat`` — every inner
    loop is ``nnz`` elements long (never ``k``), which is what makes
    the block kernel fast in numpy.  Empty rows are masked out for the
    same reason as in the 1-D kernel: ``reduceat`` at a repeated offset
    returns the element rather than an empty-sum 0.  ``k = 1`` runs the
    exact single-vector pipeline on the block's only column, so the
    degenerate batch can never regress relative to ``spmv``.

    With ``add`` the per-row sums are accumulated into ``out`` instead
    of overwriting it (the remote-part kernel of the split schemes).
    """
    nrows = row_ptr.size - 1
    k = X.shape[1]
    if col_idx.size == 0 or k == 0:
        if not add:
            out[:] = 0.0
        return out
    XT = np.ascontiguousarray(X.T)  # lint: allow(hot-path-alloc) one amortised transpose
    starts = row_ptr[:-1]
    nonempty = row_ptr[1:] > starts
    if nonempty.all():
        colbuf = None
        for j in range(k):
            # indices are validated at CSRMatrix construction; mode="clip"
            # skips numpy's per-element bounds check in the gather
            prod = XT[j].take(col_idx, mode="clip")
            np.multiply(prod, val, out=prod)
            ocol = out[:, j]
            if not add and ocol.flags.c_contiguous:
                # k == 1 (or a single-column view): reduce straight into
                # the output, no staging copy at all
                np.add.reduceat(prod, starts, out=ocol)
                continue
            if colbuf is None:
                colbuf = np.empty(nrows)
            np.add.reduceat(prod, starts, out=colbuf)
            if add:
                ocol += colbuf
            else:
                ocol[:] = colbuf
        return out
    if not add:
        out[:] = 0.0
    masked_starts = starts[nonempty]
    if masked_starts.size:
        for j in range(k):
            prod = XT[j].take(col_idx, mode="clip")
            np.multiply(prod, val, out=prod)
            if add:
                out[nonempty, j] += np.add.reduceat(prod, masked_starts)
            else:
                out[nonempty, j] = np.add.reduceat(prod, masked_starts)
    return out


def _check_block(A: "CSRMatrix", X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != A.ncols:
        raise ValueError(
            f"X must be a block of shape ({A.ncols}, k), got shape {X.shape}"
        )
    return X


def spmm(A: "CSRMatrix", X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compute ``C = A @ X`` for a CSR matrix and a dense ``(n, k)`` block.

    Column ``j`` of the result is bit-identical to ``spmv(A, X[:, j])``.

    Parameters
    ----------
    A:
        CSR matrix of shape ``(m, n)``.
    X:
        Dense block of shape ``(n, k)`` — k right-hand sides, row-major.
    out:
        Optional preallocated float64 result of shape ``(m, k)``
        (overwritten in place).  A non-float64 ``out`` raises
        :class:`ValueError` — it could only be honoured by a lossy cast
        through a hidden temporary.
    """
    X = _check_block(A, X)
    if out is None:
        out = np.empty((A.nrows, X.shape[1]))
    else:
        check_out(out, (A.nrows, X.shape[1]))
    return _segmented_block_rowsums(A, X, out)


def spmm_add(A: "CSRMatrix", X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Accumulate ``C += A @ X`` into a preallocated ``(m, k)`` block."""
    X = _check_block(A, X)
    check_out(out, (A.nrows, X.shape[1]))
    return _segmented_block_rowsums(A, X, out, add=True)


def spmm_rows(
    A: "CSRMatrix", X: np.ndarray, row_lo: int, row_hi: int, out: np.ndarray
) -> np.ndarray:
    """Compute rows ``[row_lo, row_hi)`` of ``A @ X`` into ``out`` (shape (m, k)).

    Rows outside the range are left untouched — the block analogue of
    :func:`repro.sparse.spmv.spmv_rows` for explicit work distribution.
    """
    if not (0 <= row_lo <= row_hi <= A.nrows):
        raise ValueError(f"invalid row range [{row_lo}, {row_hi})")
    X = _check_block(A, X)
    check_out(out, (A.nrows, X.shape[1]))
    return _segmented_block_rowsums(A, X, out, rows=(row_lo, row_hi))


def spmm_traffic(
    A: "CSRMatrix", k: int, *, kappa: float = 0.0, split: bool = False
) -> float:
    """Bytes of main-memory traffic for one ``A @ X`` block product.

    The block extension of the paper's per-MVM accounting
    (:func:`repro.sparse.spmv.spmv_traffic`): ``val`` and ``col_idx``
    are streamed *once for the whole block*, while result, RHS and the
    ``kappa`` cache-reload term scale with the k columns.  At ``k = 1``
    this reduces exactly to the single-vector formula.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    result_bytes = RESULT_BYTES * (2 if split else 1)
    return (
        (VAL_BYTES + IDX_BYTES) * A.nnz
        + kappa * k * A.nnz
        + result_bytes * A.nrows * k
        + RHS_BYTES * A.ncols * k
    )
