"""Shared utilities: validation, unit handling, text tables/charts."""

from repro.util.checks import (
    check_array_1d,
    check_fraction,
    check_in,
    check_nonnegative_int,
    check_positive_float,
    check_positive_int,
    check_real_array,
    check_same_length,
    check_sorted_nondecreasing,
    require,
)
from repro.util.tables import Table, ascii_chart, ascii_heatmap, format_table
from repro.util.units import (
    GB,
    GIB,
    gb_per_s,
    to_gb_per_s,
)

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
    "Table",
    "format_table",
    "ascii_chart",
    "ascii_heatmap",
    "GB",
    "GIB",
    "gb_per_s",
    "to_gb_per_s",
]
