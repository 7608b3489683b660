"""Compiled executor of the CRS row sums: one C loop, proven at load.

Every kernel of the tree funnels through two functions,
:func:`repro.sparse.spmv._segmented_rowsums` and
:func:`repro.sparse.spmm._segmented_block_rowsums`.  Their numpy code is
the *definition* of a row sum — ``p[0] + pairwise_sum(p[1:])`` over the
rounded products, the association ``np.add.reduceat`` gives every
segment — and this module is a second *executor* of that definition: a C
function that walks the rows once, association for association
(sequential below 8 terms, 8 accumulators up to 128, halves above), with
no ``nnz`` temporary and, called through :class:`ctypes.CDLL`, without
the GIL.  Same bits, so nothing above the two cores can tell which one
ran: there is no kernel key, flag, parameter or environment switch for
it.

Life cycle, all of it inside ``import repro.sparse`` (:func:`load`), so
no timed call ever pays for a compiler, a ``dlopen`` or the self-test:

1. the library is looked up in ``${XDG_CACHE_HOME:-~/.cache}/repro/``
   (a private directory under the system temp dir when that cannot be
   written) under a name that hashes the C source, the flags and the
   machine;
2. a miss compiles it with ``$CC``, else ``cc``, else ``gcc``
   (``-ffp-contract=off``; never ``-ffast-math`` or ``-march=native`` —
   a fused or reassociated sum is a different sum) into a temporary
   file that ``os.replace`` moves into place, so two processes racing
   the first build both end with a valid library;
3. it is accepted only if it matches the numpy executor **bit for bit**
   on a probe matrix (row lengths 0 … 300, mixed magnitudes, signed
   zeros, k in {1, 3}, overwrite and add).

No compiler, a failed build, a failed load or a failed self-test means
one logged warning and numpy everywhere; :func:`status` says which.

Per call, :func:`rowsums` declines ("not taken", the caller runs numpy)
whatever it could not execute identically: non-int64 indices,
non-float64 / non-C-contiguous / read-only arrays, empty operands, and
an ``out`` that shares memory with an input (numpy forms all products
before it writes; the C loop does not).  Column indices and row extents
are range-checked inside the C pass, so a matrix mutated after
construction raises :class:`IndexError` instead of reading outside its
arrays.  A call costs about 2 us of Python on top of the loop: the
matrix's three arrays are vetted and their addresses looked up once per
matrix (:func:`_bind_matrix`), only ``x`` and ``out`` per call.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = ["NativeStatus", "load", "rowsums", "status"]

_LOG = logging.getLogger(__name__)

#: Everything after ``$CC``.  ``-ffp-contract=off`` keeps ``v * x + s``
#: two roundings where the target has a fused multiply-add.
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

#define PW_BLOCK 128 /* numpy's PW_BLOCKSIZE */
#define INLINE static inline __attribute__((always_inline))

/* Sums over i < n (n <= PW_BLOCK) of the rounded products
 * val[i] * X[col[i]*k + j], one per column j < W: the two base cases of
 * numpy's pairwise_sum.  Returns 1 at a column index outside [0, ncols). */
INLINE int
block_sum(const double *val, const i64 *col, i64 n, const double *X, i64 k,
          u64 ncols, const int W, double *res)
{
    double r[8][8];
    i64 i;
    int j, u;
    if (n < 8) {
        for (j = 0; j < W; j++) res[j] = -0.0;
        for (i = 0; i < n; i++) {
            u64 c = (u64)col[i];
            if (c >= ncols) return 1;
            const double *xr = X + c * k;
            double v = val[i];
            for (j = 0; j < W; j++) res[j] += v * xr[j];
        }
        return 0;
    }
    for (u = 0; u < 8; u++) {
        u64 c = (u64)col[u];
        if (c >= ncols) return 1;
        const double *xr = X + c * k;
        double v = val[u];
        for (j = 0; j < W; j++) r[u][j] = v * xr[j];
    }
    for (i = 8; i < n - (n % 8); i += 8) {
        for (u = 0; u < 8; u++) {
            u64 c = (u64)col[i + u];
            if (c >= ncols) return 1;
            const double *xr = X + c * k;
            double v = val[i + u];
            for (j = 0; j < W; j++) r[u][j] += v * xr[j];
        }
    }
    for (j = 0; j < W; j++)
        res[j] = ((r[0][j] + r[1][j]) + (r[2][j] + r[3][j])) +
                 ((r[4][j] + r[5][j]) + (r[6][j] + r[7][j]));
    for (; i < n; i++) {
        u64 c = (u64)col[i];
        if (c >= ncols) return 1;
        const double *xr = X + c * k;
        double v = val[i];
        for (j = 0; j < W; j++) res[j] += v * xr[j];
    }
    return 0;
}

/* numpy's pairwise_sum for any n: above PW_BLOCK terms, the sum of two
 * halves, the first rounded down to a multiple of 8. */
static int
pairwise_sum(const double *val, const i64 *col, i64 n, const double *X, i64 k,
             u64 ncols, int W, double *res)
{
    double a[8], b[8];
    i64 n2 = n / 2;
    int j;
    if (n <= PW_BLOCK) {
        switch (W) {
        case 1: return block_sum(val, col, n, X, k, ncols, 1, res);
        case 2: return block_sum(val, col, n, X, k, ncols, 2, res);
        case 4: return block_sum(val, col, n, X, k, ncols, 4, res);
        default: return block_sum(val, col, n, X, k, ncols, 8, res);
        }
    }
    n2 -= n2 % 8;
    if (pairwise_sum(val, col, n2, X, k, ncols, W, a)) return 1;
    if (pairwise_sum(val + n2, col + n2, n - n2, X, k, ncols, W, b)) return 1;
    for (j = 0; j < W; j++) res[j] = a[j] + b[j];
    return 0;
}

/* One row of n >= 1 terms, W columns: p[0] + pairwise_sum(p[1:]), the
 * association np.add.reduceat gives each segment. */
INLINE int
row_tile(const double *val, const i64 *col, i64 n, const double *X, i64 k,
         u64 ncols, const int W, int add, double *out)
{
    double rest[8];
    int j;
    u64 c = (u64)col[0];
    if (c >= ncols) return 1;
    if (n - 1 <= PW_BLOCK) {
        if (block_sum(val + 1, col + 1, n - 1, X, k, ncols, W, rest)) return 1;
    } else if (pairwise_sum(val + 1, col + 1, n - 1, X, k, ncols, W, rest)) {
        return 1;
    }
    const double *xr = X + c * k;
    double v = val[0];
    if (add)
        for (j = 0; j < W; j++) out[j] += v * xr[j] + rest[j];
    else
        for (j = 0; j < W; j++) out[j] = v * xr[j] + rest[j];
    return 0;
}

static int
overlap(const void *a, i64 na, const void *b, i64 nb)
{
    uintptr_t pa = (uintptr_t)a, pb = (uintptr_t)b;
    return pa < pb + (uintptr_t)nb * 8 && pb < pa + (uintptr_t)na * 8;
}

/* out (+)= row sums of val * X[col] for the k columns of the row-major
 * X (ncols x k); k = 1 is the vector kernel.  An empty row reads 0 and,
 * under add, leaves out alone.  Returns -1 when done, -2 (nothing
 * written) when out overlaps an input, else the first row whose extent
 * leaves [0, nnz] or that holds a column index outside [0, ncols).
 * Scalars travel as intptr_t: the caller passes every argument as a
 * pointer-sized integer. */
intptr_t
repro_rowsums(intptr_t nrows, const i64 *row_ptr, const i64 *col,
              const double *val, intptr_t nnz, const double *X, intptr_t ncols,
              intptr_t k, double *out, intptr_t add)
{
    i64 r, j;
    if (overlap(out, nrows * k, X, ncols * k) || overlap(out, nrows * k, val, nnz) ||
        overlap(out, nrows * k, col, nnz) || overlap(out, nrows * k, row_ptr, nrows + 1))
        return -2;
    for (r = 0; r < nrows; r++) {
        i64 s = row_ptr[r], e = row_ptr[r + 1], n = e - s;
        double *o = out + r * k;
        if (s < 0 || e < s || e > nnz) return r;
        if (n == 0) {
            if (!add)
                for (j = 0; j < k; j++) o[j] = 0.0;
            continue;
        }
        const double *v = val + s;
        const i64 *c = col + s;
        if (k == 1) {
            if (row_tile(v, c, n, X, 1, (u64)ncols, 1, (int)add, o)) return r;
            continue;
        }
        for (j = 0; j + 8 <= k; j += 8)
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 8, (int)add, o + j)) return r;
        if (j + 4 <= k) {
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 4, (int)add, o + j)) return r;
            j += 4;
        }
        if (j + 2 <= k) {
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 2, (int)add, o + j)) return r;
            j += 2;
        }
        if (j < k && row_tile(v, c, n, X + j, k, (u64)ncols, 1, (int)add, o + j))
            return r;
    }
    return -1;
}
"""

#: Row lengths of the load-time probe: empty, the sequential range, both
#: sides of the 8-accumulator threshold (a row of n terms sums n - 1 of
#: them pairwise) and of numpy's 128-term block, and one split twice.
#: The probe holds them twice — values of one magnitude, where a wrong
#: association shows in the last bit of nearly every row, then of mixed
#: magnitudes — and ends in two rows that sum nothing but -0.0.
_PROBE_ROW_LENGTHS = (0, 1, 2, 8, 9, 10, 128, 129, 130, 300)
_PROBE_NCOLS = 97

_I8 = np.dtype(np.int64)
_F8 = np.dtype(np.float64)


@dataclass(frozen=True)
class NativeStatus:
    """What :func:`load` found; read-only, there is nothing to set."""

    available: bool
    library: str | None
    compiler: str | None  # None when the cached library was reused
    flags: tuple[str, ...]
    reason: str | None  # why it is off; None when available

    def describe(self) -> str:
        """One line for ``repro kernels``."""
        if not self.available:
            return f"numpy executor only ({self.reason})"
        built = f"built with {self.compiler}" if self.compiler else "cached build"
        return f"compiled executor {self.library} ({built}; {' '.join(self.flags)})"

    def to_dict(self) -> dict:
        """JSON-ready (what a benchmark records about its environment)."""
        # flags as a list: the payload must equal its own JSON round trip
        return {**asdict(self), "flags": list(self.flags)}


class _Unavailable(Exception):
    """Why the compiled executor cannot be used on this machine."""


_addressof = ctypes.addressof
_from_buffer = ctypes.c_byte.from_buffer

# Build-once state, written by load() during ``import repro.sparse`` and
# only read afterwards.
_kernel = None
_status = NativeStatus(False, None, None, FLAGS, "repro.sparse has not been imported")


#: ``id(matrix) -> _bind_matrix(matrix)``: three of the five addresses a
#: call needs belong to the matrix and cost more to look up than a small
#: kernel takes to run.  An entry is dropped when its matrix is collected.
_handles: dict[int, tuple] = {}


def status() -> NativeStatus:
    """Whether the compiled executor is in use, from where, or why not."""
    return _status


def _cache_dir() -> Path:
    """The first directory the library can be written to (created)."""
    uid = os.getuid() if hasattr(os, "getuid") else None
    candidates = [Path(tempfile.gettempdir()) / f"repro-{'user' if uid is None else uid}"]
    errors = []
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        candidates.insert(0, cache / "repro")
    except RuntimeError as exc:  # no XDG_CACHE_HOME and no home directory
        errors.append(str(exc))
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            # a shared temp dir is world-writable: never load a library
            # out of a directory somebody else made
            if uid is not None and path.stat().st_uid != uid:
                raise PermissionError(f"{path} belongs to another user")
            if os.access(path, os.W_OK | os.X_OK):
                return path
            errors.append(f"{path}: not writable")
        except OSError as exc:
            errors.append(f"{path}: {exc}")
    raise _Unavailable("no writable cache directory (" + "; ".join(errors) + ")")


def _compiler() -> list[str]:
    cc = os.environ.get("CC")
    if cc:
        try:
            return shlex.split(cc)
        except ValueError as exc:  # unbalanced quotes
            raise _Unavailable(f"cannot parse $CC ({cc!r}): {exc}") from exc
    for name in ("cc", "gcc"):
        found = shutil.which(name)
        if found:
            return [found]
    raise _Unavailable("no C compiler: $CC is unset and neither cc nor gcc is on PATH")


def _library() -> tuple[Path, str | None]:
    """Path of the library, compiling it first if this machine has none."""
    tag = hashlib.sha256(
        "\0".join((_SOURCE, *FLAGS, platform.machine(), sys.platform)).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    lib = directory / f"rowsums-{tag}.so"
    if lib.exists():
        return lib, None
    cc = _compiler()
    try:
        # built next to its destination, so os.replace never crosses a
        # file system and a racing process sees the old state or the new
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            src = Path(tmp) / "rowsums.c"
            src.write_text(_SOURCE)
            built = Path(tmp) / lib.name
            proc = subprocess.run(
                [*cc, *FLAGS, str(src), "-o", str(built)],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                detail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                raise _Unavailable(
                    f"{shlex.join(cc)} exited with status {proc.returncode}: {detail[0]}"
                )
            os.replace(built, lib)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _Unavailable(f"building with {shlex.join(cc)} failed: {exc}") from exc
    return lib, shlex.join(cc)


def _bind(lib: Path):
    try:
        fn = ctypes.CDLL(str(lib)).repro_rowsums
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"loading {lib} failed: {exc}") from exc
    # every argument as c_void_p, the integers too: ctypes converts a
    # Python int to a pointer-sized value in half the time it takes to
    # box a c_int64, and the C side declares them intptr_t
    fn.argtypes = [ctypes.c_void_p] * 10
    fn.restype = ctypes.c_ssize_t
    return fn


def _address(array: np.ndarray) -> int:
    """Address of *array*'s first byte; TypeError / ValueError unless it is
    writable, C-contiguous and not empty.

    ``from_buffer`` is both the check and by far the cheapest way from
    an ndarray to a pointer (~0.25 us; ``ndarray.ctypes.data`` and
    ``__array_interface__`` take 1 us each).
    """
    return _addressof(_from_buffer(array))


def _self_test(fn) -> None:
    """Accept *fn* only if it reproduces the numpy executor's bits."""
    from repro.sparse.spmm import _numpy_block_rowsums
    from repro.sparse.spmv import _numpy_rowsums

    rng = np.random.default_rng(1101_0091)
    lengths = _PROBE_ROW_LENGTHS * 2 + (1, 3)
    row_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz, nrows = int(row_ptr[-1]), row_ptr.size - 1
    col_idx = rng.integers(1, _PROBE_NCOLS, nnz)
    val = rng.standard_normal(nnz)
    mixed = slice(int(row_ptr[len(_PROBE_ROW_LENGTHS)]), nnz)
    val[mixed] *= 10.0 ** rng.integers(-12, 13, val[mixed].size)
    # the sign of an all-zero sum depends on the value numpy seeds its
    # accumulator with: column 0 of X is -0.0 and only these rows read it
    zeros = slice(int(row_ptr[-3]), nnz)
    col_idx[zeros] = 0
    val[zeros] = 1.0
    for k in (1, 3):
        X = rng.standard_normal((_PROBE_NCOLS, k))
        X[0] = -0.0
        start = rng.standard_normal((nrows, k))
        for add in (False, True):
            got, want = start.copy(), start.copy()
            if k == 1:
                _numpy_rowsums(row_ptr, col_idx, val, X[:, 0], want[:, 0], add=add)
            else:
                _numpy_block_rowsums(row_ptr, col_idx, val, X, want, add=add)
            code = fn(
                nrows, _address(row_ptr), _address(col_idx), _address(val), nnz,
                _address(X), _PROBE_NCOLS, k, _address(got), add,
            )
            if code != -1 or not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
                raise _Unavailable(
                    f"self-test failed (k={k}, add={add}, numpy {np.__version__}): the "
                    f"library does not reproduce np.add.reduceat bit for bit"
                )


def load() -> NativeStatus:
    """Find or build the library, prove it, switch it on.  Never raises.

    Called once, by ``repro/sparse/__init__.py``.
    """
    global _kernel, _status
    lib = compiler = None
    try:
        lib, compiler = _library()
        fn = _bind(lib)
        _self_test(fn)
    except _Unavailable as exc:
        _status = NativeStatus(False, str(lib) if lib else None, compiler, FLAGS, str(exc))
        _LOG.warning("compiled row-sum executor is off, numpy runs instead: %s", exc)
    else:
        _kernel = fn
        _status = NativeStatus(True, str(lib), compiler, FLAGS, None)
    return _status


def _bind_matrix(A) -> tuple | None:
    """Vet *A*'s three arrays once and remember where they are.

    Returns ``(row_ptr, col_idx, val, &row_ptr, &col_idx, &val, nrows,
    nnz)``, or ``None`` for a matrix the C loop must not touch.  The
    entry holds the arrays themselves: numpy refuses to resize an array
    somebody else references, so the addresses stay good for as long as
    the entry does, and :func:`rowsums` uses it only while ``A`` still
    holds those very objects.
    """
    row_ptr, col_idx, val = A.row_ptr, A.col_idx, A.val
    if (
        row_ptr.dtype != _I8 or col_idx.dtype != _I8 or val.dtype != _F8
        or row_ptr.ndim != 1 or col_idx.ndim != 1 or val.shape != col_idx.shape
    ):
        return None
    try:
        handle = (
            row_ptr, col_idx, val, _address(row_ptr), _address(col_idx), _address(val),
            row_ptr.size - 1, col_idx.size,
        )
    except (TypeError, ValueError):  # read-only, strided or empty
        return None
    key = id(A)
    if key not in _handles:
        weakref.finalize(A, _handles.pop, key, None)
    _handles[key] = handle
    return handle


def _out_of_range(row: int, row_ptr, col_idx, ncols: int) -> IndexError:
    lo, hi = int(row_ptr[row]), int(row_ptr[row + 1])
    if not 0 <= lo <= hi <= col_idx.size:
        return IndexError(
            f"row {row}: row_ptr extent [{lo}, {hi}) is outside the {col_idx.size} "
            f"stored entries"
        )
    cols = col_idx[lo:hi]
    bad = cols[(cols < 0) | (cols >= ncols)]
    return IndexError(
        f"row {row}: column index {int(bad[0])} is out of range for {ncols} columns"
    )


def rowsums(A, x, out, add: bool, rows: tuple[int, int] | None = None) -> bool:
    """``out (+)= A @ x`` row sums in C; ``False`` = not taken.

    ``x`` is a vector or a row-major ``(n, k)`` block and ``out`` the
    matching ``(nrows,)`` / ``(nrows, k)`` array; with ``rows = (lo,
    hi)`` only those rows of ``out`` are computed.  ``False`` leaves
    ``out`` untouched and the caller runs the numpy executor, which
    computes the same bits.
    """
    fn = _kernel
    if fn is None:
        return False
    handle = _handles.get(id(A))
    if (
        handle is None or handle[0] is not A.row_ptr
        or handle[1] is not A.col_idx or handle[2] is not A.val
    ):
        handle = _bind_matrix(A)
        if handle is None:
            return False
    nrows = handle[6]
    if x.dtype != _F8 or out.dtype != _F8:
        return False
    if x.ndim == 1:
        k = 1
        if out.shape != (nrows,):
            return False
    elif x.ndim == 2:
        k = x.shape[1]
        if out.shape != (nrows, k):
            return False
    else:
        return False
    if rows is None:
        lo, count = 0, nrows
    else:
        lo, hi = rows
        if not 0 <= lo <= hi <= nrows:
            return False
        count = hi - lo
    try:
        code = fn(
            count, handle[3] + 8 * lo, handle[4], handle[5], handle[7],
            _address(x), x.shape[0], k, _address(out) + 8 * k * lo, add,
        )
    except (TypeError, ValueError):  # read-only, strided or empty operand
        return False
    if code >= 0:
        raise _out_of_range(lo + code, handle[0], handle[1], x.shape[0])
    return code == -1
