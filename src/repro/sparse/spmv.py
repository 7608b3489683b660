"""Sparse matrix-vector and matrix-block multiplication kernels.

The paper's reference kernel (Sect. 1.2) is the classic two-loop CRS
code; in Python the equivalent O(nnz) vectorised formulation is the
*segmented sum*: multiply ``val`` with the gathered RHS elements and
reduce each row's slice independently (``np.add.reduceat`` over the row
offsets).  There is one such row sum here, over a dense ``(n, k)``
block of right-hand sides (the block-vector step of Schubert et al.,
arXiv:1106.5908): a vector is its one-column view, so column ``j`` of
``spmm(A, X)`` is ``spmv(A, X[:, j])`` bit for bit by construction, and
an empty halo is a zero-column matrix with an empty right-hand side.

Earlier revisions implemented the segmented sum by differencing a
cumulative sum at the row boundaries.  That formulation is numerically
wrong for mixed-magnitude matrices: the running sum carries every
previous row's partial into the current row's difference, so a huge
entry anywhere cancels small rows that follow it (e.g. rows
``[[1e16, 1], [1, 1]]`` with ``x = ones(2)`` returned ``[1e16, 0]``
instead of ``[1e16, 2]``).  ``reduceat`` keeps each row's accumulation
independent, matching the two-loop CRS reference exactly.

A literal 2-D analogue of that sum — an ``(nnz, k)`` temporary
``val[:, None] * X[col_idx]`` reduced with ``reduceat(axis=0)`` — is
numerically identical but runs every inner loop over the tiny ``k``
axis, and made k = 4 cost 10x the k = 1 kernel.  :func:`_numpy_rowsums`
instead transposes the block once and runs the contiguous gather →
in-place multiply → 1-D ``reduceat`` pipeline per column, so every
inner loop is ``nnz`` long.

That numpy code *defines* the row sum; where the machine has a C
compiler the same sum — the same association, hence the same bits — is
executed by the compiled loop of :mod:`repro.sparse.native`, which
:func:`_segmented_rowsums` asks first.  Both executors raise
:class:`IndexError` on a column index outside ``[0, ncols)`` (a matrix
mutated after construction); neither returns a vector for it.

Kernels
-------
``spmv``            full product ``y = A @ x``
``spmv_add``        accumulate ``y += A @ x``
``spmm``            full block product ``Y = A @ X``
``spmm_add``        accumulate ``Y += A @ X``
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
from repro.util import check_real_array

__all__ = [
    "spmv",
    "spmv_add",
    "spmm",
    "spmm_add",
    "spmv_split",
    "spmv_traffic",
    "flops",
]


def _segmented_rowsums(
    A: "CSRMatrix", X: np.ndarray, out: np.ndarray, *, add: bool = False
) -> np.ndarray:
    """Per-column row sums of ``A.val * X[A.col_idx]``: ``out = sums`` or ``out += sums``.

    *X* is ``(ncols, k)`` and *out* ``(nrows, k)``.  One definition, two
    executors: the compiled one (:func:`repro.sparse.native.rowsums`) is
    asked first; what it does not take — or everything, where it could
    not be built — :func:`_numpy_rowsums` computes, and the two agree
    bit for bit (the library is only accepted once it has proven that,
    at import).
    """
    if not native.rowsums(A, X, out, add):
        _numpy_rowsums(A.row_ptr, A.col_idx, A.val, X, out, add=add)
    return out


def _numpy_rowsums(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    val: np.ndarray,
    X: np.ndarray,
    out: np.ndarray,
    *,
    add: bool = False,
) -> np.ndarray:
    """The definition of a row sum: ``np.add.reduceat`` over the products.

    Each column gathers its RHS contiguously (a checked ``take``: an
    index at or past ``ncols`` raises :class:`IndexError`; a negative
    one, which ``take`` would wrap, is caught first by one ``min`` per
    call), multiplies ``val`` in place and reduces with the 1-D
    ``np.add.reduceat``, so partial sums never cross row boundaries.
    Empty rows must be masked out: ``reduceat`` at a repeated offset
    returns the *element* at that offset rather than an empty-sum 0.
    Overwriting, an empty row reads 0; under ``add`` it is left alone.

    A contiguous output column (a vector's one-column view) receives
    the reduction in place when no row is empty and nothing is
    accumulated; otherwise one ``nrows`` staging buffer serves every
    column.  An ``out`` sharing memory with ``X`` or ``val`` gets the
    same answer: each column is summed before it is written, and a
    block (where one column's write could reach a later column's
    input) is summed into a copy of ``out`` first.
    """
    nrows = row_ptr.size - 1
    k = X.shape[1]
    if col_idx.size == 0 or k == 0:
        if not add:
            out[:] = 0.0
        return out
    lowest = int(col_idx.min())
    if lowest < 0:
        raise IndexError(f"column index {lowest} is out of range [0, {X.shape[0]})")
    if k > 1 and (np.may_share_memory(out, X) or np.may_share_memory(out, val)):
        # a later column would read what an earlier one wrote: sum apart
        apart = out.copy()  # lint: allow(hot-path-alloc) overlapping operands only
        out[:] = _numpy_rowsums(row_ptr, col_idx, val, X, apart, add=add)
        return out
    XT = np.ascontiguousarray(X.T)  # lint: allow(hot-path-alloc) one amortised transpose
    starts = row_ptr[:-1]
    nonempty = row_ptr[1:] > starts
    if nonempty.all():
        colbuf = None
        for j in range(k):
            prod = XT[j].take(col_idx)
            np.multiply(prod, val, out=prod)
            ocol = out[:, j]
            if not add and ocol.flags.c_contiguous:
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
    masked_starts = starts[nonempty]
    for j in range(k):
        # summed before anything is written: XT may be a view of out
        prod = XT[j].take(col_idx)
        np.multiply(prod, val, out=prod)
        sums = np.add.reduceat(prod, masked_starts)
        if add:
            out[nonempty, j] += sums
        else:
            out[:, j] = 0.0
            out[nonempty, j] = sums
    return out


def _check_out(out: np.ndarray, shape: tuple) -> None:
    """A caller's output buffer must be a float64 array of exactly *shape*.

    Kernels write into ``out`` in place; a non-float64 buffer could only
    receive the result through a lossy cast of a hidden temporary, so it
    is rejected exactly like a wrong shape is — never silently down-cast.
    """
    if not isinstance(out, np.ndarray):
        raise ValueError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"out must have dtype float64, got {out.dtype}")


def _check_vector(A: "CSRMatrix", x: np.ndarray) -> np.ndarray:
    x = check_real_array(x, "x")
    if x.ndim != 1 or x.size != A.ncols:
        raise ValueError(f"x must be a vector of length {A.ncols}, got shape {x.shape}")
    return x


def _check_block(A: "CSRMatrix", X: np.ndarray) -> np.ndarray:
    X = check_real_array(X, "X")
    if X.ndim != 2 or X.shape[0] != A.ncols:
        raise ValueError(
            f"X must be a block of shape ({A.ncols}, k), got shape {X.shape}"
        )
    return X


def spmv(A: "CSRMatrix", x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compute ``y = A @ x`` for a CSR matrix and a dense vector.

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
    x = _check_vector(A, x)
    if out is None:
        out = np.empty(A.nrows)
    else:
        _check_out(out, (A.nrows,))
    _segmented_rowsums(A, x[:, None], out[:, None])
    return out


def spmv_add(A: "CSRMatrix", x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Accumulate ``y += A @ x`` into a preallocated vector."""
    x = _check_vector(A, x)
    _check_out(out, (A.nrows,))
    _segmented_rowsums(A, x[:, None], out[:, None], add=True)
    return out


def spmm(A: "CSRMatrix", X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compute ``Y = A @ X`` for a CSR matrix and a dense ``(n, k)`` block.

    Column ``j`` of the result is bit-identical to ``spmv(A, X[:, j])``.

    Parameters
    ----------
    A:
        CSR matrix of shape ``(m, n)``.
    X:
        Dense block of shape ``(n, k)`` — k right-hand sides, row-major.
    out:
        Optional preallocated float64 result of shape ``(m, k)``
        (overwritten in place), under the same rule as ``spmv``'s.
    """
    X = _check_block(A, X)
    if out is None:
        out = np.empty((A.nrows, X.shape[1]))
    else:
        _check_out(out, (A.nrows, X.shape[1]))
    return _segmented_rowsums(A, X, out)


def spmm_add(A: "CSRMatrix", X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Accumulate ``Y += A @ X`` into a preallocated ``(m, k)`` block."""
    X = _check_block(A, X)
    _check_out(out, (A.nrows, X.shape[1]))
    return _segmented_rowsums(A, X, out, add=True)


def spmv_split(
    A_local: "CSRMatrix",
    A_remote: "CSRMatrix",
    x_local: np.ndarray,
    x_remote: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Two-phase product: ``y = A_local @ x_local`` then ``y += A_remote @ x_remote``.

    Mirrors the execution order of the overlap schemes: the local part is
    computed while communication is (nominally) in flight, the remote part
    after all halo data has arrived.  Writing ``y`` twice is exactly the
    extra traffic Eq. 2 charges (16/Nnzr additional bytes per inner
    iteration).
    """
    if A_local.nrows != A_remote.nrows:
        raise ValueError("local and remote parts must have the same row count")
    if out is None:
        out = np.zeros(A_local.nrows)
    else:
        _check_out(out, (A_local.nrows,))
    spmv(A_local, x_local, out=out)
    spmv_add(A_remote, x_remote, out=out)
    return out


def flops(A: "CSRMatrix") -> int:
    """Floating point operations of one product: 2 per nonzero."""
    return 2 * A.nnz


def spmv_traffic(A: "CSRMatrix", *, kappa: float = 0.0, split: bool = False) -> float:
    """Bytes of main-memory traffic for one ``A @ x`` per the paper's model.

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
