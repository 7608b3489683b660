"""Shared output-buffer validation for the sparse kernels.

Every kernel in :mod:`repro.sparse.spmv` and :mod:`repro.sparse.spmm`
validates a caller-provided ``out`` through :func:`check_out`, so that
*what* is checked — and the error message — cannot drift between
kernels.

Historically the checks were inconsistent: ``spmv``/``spmm`` checked
``out`` for shape but silently *down-cast* into a non-float64 ``out``
through a hidden temporary (allocating exactly what the preallocated
output API promises to avoid, and losing precision on the way), while
``spmv_split`` checked nothing about ``out``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_out"]


def check_out(out: np.ndarray, shape: tuple, name: str = "out") -> np.ndarray:
    """Validate a caller-provided output buffer: exact shape AND float64.

    Kernels write into ``out`` in place; a non-float64 buffer cannot
    receive the result without a lossy cast through a hidden temporary,
    so it is rejected exactly like a wrong shape is — never silently
    down-cast.
    """
    if not isinstance(out, np.ndarray):
        raise ValueError(f"{name} must be a numpy array, got {type(out).__name__}")
    if out.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"{name} must have dtype float64, got {out.dtype}")
    return out
