"""Validation helpers used across the library.

These helpers centralise argument checking so that error messages are
uniform and informative.  All of them raise :class:`ValueError` or
:class:`TypeError` with a message that names the offending parameter.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "require",
    "check_positive_int",
    "check_nonnegative_int",
    "check_positive_float",
    "check_fraction",
    "check_in",
    "check_array_1d",
    "check_real_array",
    "check_same_length",
    "check_sorted_nondecreasing",
]


_F8 = np.dtype(np.float64)


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: Any, name: str) -> int:
    """Return *value* as ``int`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_nonnegative_int(value: Any, name: str) -> int:
    """Return *value* as ``int`` if it is a nonnegative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_positive_float(value: Any, name: str) -> float:
    """Return *value* as ``float`` if it is a positive finite number."""
    try:
        fval = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a number, got {type(value).__name__}") from exc
    if not np.isfinite(fval) or fval <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return fval


def check_fraction(value: Any, name: str) -> float:
    """Return *value* as ``float`` if it lies in the closed interval [0, 1]."""
    try:
        fval = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a number, got {type(value).__name__}") from exc
    if not (0.0 <= fval <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return fval


def check_in(value: Any, options: Iterable[Any], name: str) -> Any:
    """Raise unless *value* is one of *options*; return it unchanged."""
    opts = tuple(options)
    if value not in opts:
        raise ValueError(f"{name} must be one of {opts!r}, got {value!r}")
    return value


def check_array_1d(arr: Any, name: str, dtype: Any = None) -> np.ndarray:
    """Coerce *arr* to a 1-D :class:`numpy.ndarray` (optionally of *dtype*)."""
    out = np.asarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


def check_real_array(arr: Any, name: str) -> np.ndarray:
    """*arr* as a float64 array (no copy when it already is one).

    A complex *arr* raises instead of being cast: the cast keeps the
    real part only, so the product would be a wrong vector, reported by
    nothing but a ``ComplexWarning``.
    """
    out = np.asarray(arr)
    if out.dtype != _F8:  # every kernel call: one comparison, no cast
        if out.dtype.kind == "c":
            raise ValueError(
                f"{name} must be real, got dtype {out.dtype}; multiply its real "
                f"and imaginary parts separately"
            )
        out = np.asarray(out, dtype=np.float64)
    return out


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Raise unless the two sequences have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )


def check_sorted_nondecreasing(arr: np.ndarray, name: str) -> None:
    """Raise unless *arr* is sorted in non-decreasing order."""
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be non-decreasing")
