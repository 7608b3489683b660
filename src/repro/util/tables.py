"""Plain-text rendering of tables and simple line charts.

The paper's figures are reproduced as data series; since the benchmark
environment is headless we render them as aligned ASCII tables and,
where a visual impression helps (scaling curves, occupancy maps), as
ASCII charts.  Everything here is purely presentational — the numbers
are produced by :mod:`repro.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["format_table", "ascii_chart", "ascii_heatmap", "Table"]


def _fmt_cell(value: Any, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    float_fmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render *rows* under *headers* as an aligned, pipe-separated table."""
    str_rows = [[_fmt_cell(v, float_fmt) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class Table:
    """Mutable table builder with named columns.

    >>> t = Table(["nodes", "GFlop/s"])
    >>> t.add_row([1, 4.29])
    >>> print(t.render())        # doctest: +SKIP
    """

    headers: Sequence[str]
    rows: list = field(default_factory=list)
    title: str | None = None
    float_fmt: str = ".3f"

    def add_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(list(row))

    def render(self) -> str:
        return format_table(
            self.headers, self.rows, float_fmt=self.float_fmt, title=self.title
        )


_MARKERS = "ox+*#@%&"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 68,
    height: int = 20,
    xlabel: str = "x",
    ylabel: str = "y",
    title: str | None = None,
    y_min: float | None = None,
    y_max: float | None = None,
) -> str:
    """Render one or more ``(x, y)`` series as an ASCII scatter/line chart.

    Each series gets a distinct marker; a legend is appended.  Intended
    for quick visual inspection of scaling curves in terminal output.
    """
    pts = [(x, y) for s in series.values() for (x, y) in s]
    if not pts:
        return "(empty chart)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(ys) if y_min is None else y_min
    y_hi = max(ys) if y_max is None else y_max
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, max(0, int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))))

    def to_row(y: float) -> int:
        frac = (y - y_lo) / (y_hi - y_lo)
        return min(height - 1, max(0, int(round((1.0 - frac) * (height - 1)))))

    for idx, (_name, data) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in data:
            grid[to_row(y)][to_col(x)] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel} (top={y_hi:.3g}, bottom={y_lo:.3g})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {xlabel}: {x_lo:.3g} .. {x_hi:.3g}")
    for idx, name in enumerate(series):
        lines.append(f"  {_MARKERS[idx % len(_MARKERS)]} = {name}")
    return "\n".join(lines)


_SHADES = " .:-=+*#%@"


def ascii_heatmap(
    values: Sequence[Sequence[float]],
    *,
    title: str | None = None,
    log: bool = False,
) -> str:
    """Render a 2-D array of nonnegative values as a character heat map.

    Used for the Fig. 1 block-occupancy sparsity-pattern plots.  With
    ``log=True`` the shading follows ``log10`` of the values, which is how
    the paper colour-codes occupancies spanning 1e-6 .. 0.5.
    """
    rows = [list(map(float, r)) for r in values]
    if not rows:
        return "(empty heatmap)"
    flat = [v for r in rows for v in r if v > 0]
    lines = []
    if title:
        lines.append(title)
    if not flat:
        lines.extend("".join(" " for _ in r) for r in rows)
        return "\n".join(lines)
    if log:
        lo = math.log10(min(flat))
        hi = math.log10(max(flat))
    else:
        lo = 0.0
        hi = max(flat)
    span = (hi - lo) or 1.0
    for r in rows:
        chars = []
        for v in r:
            if v <= 0:
                chars.append(" ")
                continue
            level = (math.log10(v) - lo) / span if log else (v - lo) / span
            level = min(1.0, max(0.0, level))
            # Nonzero cells always render at least the faintest shade.
            idx = max(1, int(round(level * (len(_SHADES) - 1))))
            chars.append(_SHADES[idx])
        lines.append("".join(chars))
    return "\n".join(lines)
