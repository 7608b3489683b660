"""CLI entry points and the util layer (tables, units, checks)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.util import (
    GB,
    Table,
    ascii_chart,
    ascii_heatmap,
    check_array_1d,
    check_fraction,
    check_in,
    check_nonnegative_int,
    check_positive_float,
    check_positive_int,
    check_same_length,
    check_sorted_nondecreasing,
    format_table,
    gb_per_s,
    to_gb_per_s,
)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "probe" in out


def test_cli_matrix(capsys):
    assert main(["matrix", "HMeP", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "540" in out


def test_cli_kappa(capsys):
    assert main(["kappa"]) == 0
    assert "2.5" in capsys.readouterr().out


def test_cli_fig2(capsys):
    assert main(["fig2"]) == 0
    assert "Magny Cours" in capsys.readouterr().out


def test_cli_node_list_parsing():
    parser = build_parser()
    args = parser.parse_args(["fig5", "--nodes", "1,2,4"])
    assert args.nodes == (1, 2, 4)
    with pytest.raises(SystemExit):
        parser.parse_args(["fig5", "--nodes", "1,-2"])
    with pytest.raises(SystemExit):
        parser.parse_args(["matrix", "NotAMatrix"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# tables / charts
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "long_header"], [[1, 2.5], [33, float("nan")]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1  # rectangular
    assert "-" in lines[1]
    assert lines[3].rstrip().endswith("-")  # NaN renders as '-'


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="columns"):
        format_table(["a", "b"], [[1]])


def test_table_builder():
    t = Table(["x", "y"], title="t", float_fmt=".1f")
    t.add_row([1, 2.0])
    t.add_row([2, 4.25])
    text = t.render()
    assert text.splitlines()[0] == "t"
    assert "4.2" in text and "4.25" not in text  # float_fmt applies
    with pytest.raises(ValueError):
        t.add_row([1])


def test_ascii_chart_contains_markers():
    chart = ascii_chart({"s1": [(0, 0), (10, 5)], "s2": [(5, 2)]},
                        width=30, height=8, title="c")
    assert chart.startswith("c")
    assert "o = s1" in chart and "x = s2" in chart
    assert ascii_chart({}) == "(empty chart)"


def test_ascii_chart_flat_series():
    # constant y must not divide by zero
    chart = ascii_chart({"flat": [(0, 1.0), (5, 1.0)]})
    assert "flat" in chart


def test_ascii_heatmap_log_scale():
    hm = ascii_heatmap([[1e-6, 1e-3], [0.0, 0.5]], log=True)
    rows = hm.splitlines()
    assert rows[1][0] == " "  # zero renders blank
    assert rows[0][0] != " "  # tiny values still visible
    assert ascii_heatmap([]) == "(empty heatmap)"
    assert ascii_heatmap([[0.0]]).strip() == ""


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
def test_unit_conversions_roundtrip():
    assert gb_per_s(21.2) == 21.2 * GB
    assert to_gb_per_s(gb_per_s(21.2)) == pytest.approx(21.2)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def test_int_checks():
    assert check_positive_int(np.int64(3), "x") == 3
    with pytest.raises(ValueError):
        check_positive_int(0, "x")
    with pytest.raises(TypeError):
        check_positive_int(True, "x")
    with pytest.raises(TypeError):
        check_positive_int(2.5, "x")
    assert check_nonnegative_int(0, "x") == 0
    with pytest.raises(ValueError):
        check_nonnegative_int(-1, "x")


def test_float_and_fraction_checks():
    assert check_positive_float("2.5", "x") == 2.5
    with pytest.raises(ValueError):
        check_positive_float(float("inf"), "x")
    with pytest.raises(ValueError):
        check_positive_float(-1.0, "x")
    assert check_fraction(0.5, "x") == 0.5
    with pytest.raises(ValueError):
        check_fraction(1.5, "x")


def test_misc_checks():
    assert check_in("a", ("a", "b"), "x") == "a"
    with pytest.raises(ValueError, match="one of"):
        check_in("c", ("a", "b"), "x")
    arr = check_array_1d([1, 2, 3], "x", dtype=np.int64)
    assert arr.dtype == np.int64
    with pytest.raises(ValueError, match="one-dimensional"):
        check_array_1d([[1]], "x")
    check_same_length("a", [1, 2], "b", [3, 4])
    with pytest.raises(ValueError, match="same length"):
        check_same_length("a", [1], "b", [1, 2])
    check_sorted_nondecreasing(np.array([1, 1, 2]), "x")
    with pytest.raises(ValueError, match="non-decreasing"):
        check_sorted_nondecreasing(np.array([2, 1]), "x")
