"""Sparse matrix-vector multiplication kernels.

The paper's reference kernel (Sect. 1.2) is the classic two-loop CRS
code; in Python the equivalent O(nnz) vectorised formulation is the
*segmented sum*: multiply ``val`` with the gathered RHS elements and
reduce each row's slice independently (``np.add.reduceat`` over the row
offsets).  All kernels here share that core so that the split
local/nonlocal variants add results in a deterministic order.

Earlier revisions implemented the segmented sum by differencing a
cumulative sum at the row boundaries.  That formulation is numerically
wrong for mixed-magnitude matrices: the running sum carries every
previous row's partial into the current row's difference, so a huge
entry anywhere cancels small rows that follow it (e.g. rows
``[[1e16, 1], [1, 1]]`` with ``x = ones(2)`` returned ``[1e16, 0]``
instead of ``[1e16, 2]``).  ``reduceat`` keeps each row's accumulation
independent, matching the two-loop CRS reference exactly.

The numpy code below *defines* the row sum; where the machine has a C
compiler the same sum — the same association, hence the same bits — is
executed by the compiled loop of :mod:`repro.sparse.native`, which
:func:`_segmented_rowsums` asks first.

Kernels
-------
``spmv``            full product ``C = A @ B``
``spmv_add``        accumulate ``C += A @ B``
``spmv_split``      two-phase product: local part first, remote part
                    added afterwards (Fig. 4 b/c execution order)
``spmv_traffic``    bytes of main-memory traffic the paper's model
                    attributes to one product
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix

from repro.sparse import native
from repro.sparse.csr import IDX_BYTES, RESULT_BYTES, RHS_BYTES, VAL_BYTES
from repro.sparse.validate import check_out

__all__ = [
    "spmv",
    "spmv_add",
    "spmv_split",
    "spmv_traffic",
    "flops",
]


def _segmented_rowsums(
    A: "CSRMatrix", x: np.ndarray, out: np.ndarray, *, add: bool = False
) -> np.ndarray:
    """Row sums of ``A.val * x[A.col_idx]``: ``out = sums`` or ``out += sums``.

    One definition, two executors: the compiled one
    (:func:`repro.sparse.native.rowsums`) is asked first; what it does
    not take — or everything, where it could not be built —
    :func:`_numpy_rowsums` computes, and the two agree bit for bit (the
    library is only accepted once it has proven that, at import).
    """
    if not native.rowsums(A, x, out, add):
        _numpy_rowsums(A.row_ptr, A.col_idx, A.val, x, out, add=add)
    return out


def _numpy_rowsums(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    val: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
    *,
    add: bool = False,
) -> np.ndarray:
    """The definition of a row sum: ``np.add.reduceat`` over the products.

    Each row is reduced over its own slice only, so partial sums never
    cross row boundaries (no cumulative-sum cancellation).  Empty rows
    must be masked out: ``reduceat`` at a repeated offset returns the
    *element* at that offset rather than an empty-sum 0.  Overwriting,
    an empty row reads 0; under ``add`` it is left alone.

    The reduction writes ``out`` (float64, length nrows) in place as
    long as no row is empty and nothing is accumulated; the general
    path still needs one small gather.
    """
    if col_idx.size == 0:
        if not add:
            out[:] = 0.0
        return out
    prod = val * x[col_idx]
    starts = row_ptr[:-1]
    nonempty = row_ptr[1:] > starts
    if nonempty.all():
        if add:
            out += np.add.reduceat(prod, starts)
        else:
            np.add.reduceat(prod, starts, out=out)
        return out
    if not add:
        out[:] = 0.0
    masked_starts = starts[nonempty]
    if masked_starts.size:
        if add:
            out[nonempty] += np.add.reduceat(prod, masked_starts)
        else:
            out[nonempty] = np.add.reduceat(prod, masked_starts)
    return out


def spmv(A: "CSRMatrix", x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compute ``C = A @ B`` for a CSR matrix and a dense vector.

    Parameters
    ----------
    A:
        CSR matrix of shape ``(m, n)``.
    x:
        Dense vector of length ``n``.
    out:
        Optional preallocated float64 result of length ``m``
        (overwritten in place; the hot path allocates nothing beyond
        the elementwise product).  A non-float64 ``out`` raises
        :class:`ValueError` — it could only be honoured by a lossy cast
        through a hidden temporary.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != A.ncols:
        raise ValueError(f"x must be a vector of length {A.ncols}, got shape {x.shape}")
    if out is None:
        out = np.empty(A.nrows)
    else:
        check_out(out, (A.nrows,))
    return _segmented_rowsums(A, x, out)


def spmv_add(A: "CSRMatrix", x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Accumulate ``C += A @ B`` into a preallocated vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != A.ncols:
        raise ValueError(f"x must be a vector of length {A.ncols}, got shape {x.shape}")
    check_out(out, (A.nrows,))
    return _segmented_rowsums(A, x, out, add=True)


def spmv_split(
    A_local: "CSRMatrix",
    A_remote: "CSRMatrix",
    x_local: np.ndarray,
    x_remote: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Two-phase product: ``C = A_local @ x_local`` then ``C += A_remote @ x_remote``.

    Mirrors the execution order of the overlap schemes: the local part is
    computed while communication is (nominally) in flight, the remote part
    after all halo data has arrived.  Writing ``C`` twice is exactly the
    extra traffic Eq. 2 charges (16/Nnzr additional bytes per inner
    iteration).
    """
    if A_local.nrows != A_remote.nrows:
        raise ValueError("local and remote parts must have the same row count")
    if out is None:
        out = np.zeros(A_local.nrows)
    else:
        check_out(out, (A_local.nrows,))
    spmv(A_local, x_local, out=out)
    spmv_add(A_remote, x_remote, out=out)
    return out


def flops(A: "CSRMatrix") -> int:
    """Floating point operations of one product: 2 per nonzero."""
    return 2 * A.nnz


def spmv_traffic(A: "CSRMatrix", *, kappa: float = 0.0, split: bool = False) -> float:
    """Bytes of main-memory traffic for one ``A @ B`` per the paper's model.

    ``val`` and ``col_idx`` are streamed once, the result vector costs
    16 bytes per row (32 when the kernel is split and writes it twice),
    the RHS is loaded at least once (8 bytes per column) plus ``kappa``
    extra bytes per inner-loop iteration for cache-capacity reloads.

    This is the per-MVM absolute form of Eq. 1 / Eq. 2: dividing by
    ``flops(A)`` recovers ``B_CRS`` in bytes/flop.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    result_bytes = RESULT_BYTES * (2 if split else 1)
    return (
        (VAL_BYTES + IDX_BYTES + kappa) * A.nnz
        + result_bytes * A.nrows
        + RHS_BYTES * A.ncols
    )
