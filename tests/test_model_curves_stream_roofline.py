"""Saturation curves and STREAM arithmetic."""

import numpy as np
import pytest

from repro.model import (
    SaturationCurve,
    WRITE_ALLOCATE_FACTOR,
    measure_host_triad,
    triad_flops,
    triad_traffic,
)


@pytest.fixture()
def curve():
    return SaturationCurve.from_table({1: 10e9, 2: 16e9, 4: 20e9})


def test_curve_interpolation(curve):
    assert curve.value(1) == 10e9
    assert curve.value(3) == pytest.approx(18e9)  # linear between 2 and 4
    assert curve.value(8) == 20e9  # flat beyond the table
    assert curve.value(0) == 0.0
    assert curve.value(0.5) == pytest.approx(10e9)  # clamped below first entry


def test_curve_properties(curve):
    assert curve.saturated == 20e9
    assert curve.single_core == 10e9
    assert curve.saturation_point(0.95) == 4
    assert curve.saturation_point(0.75) == 2


def test_curve_scaling_and_extension(curve):
    doubled = curve.scaled(2.0)
    assert doubled.value(2) == 32e9
    ext = curve.extended(6)
    assert ext.cores[-1] == 6
    assert ext.value(6) == 20e9
    assert curve.extended(3) is curve


def test_curve_validation():
    with pytest.raises(ValueError, match="equal-length"):
        SaturationCurve((1, 2), (1e9,))
    with pytest.raises(ValueError, match="increasing"):
        SaturationCurve((2, 1), (1e9, 2e9))
    with pytest.raises(ValueError, match="start at 1"):
        SaturationCurve((0, 1), (1e9, 2e9))


def test_paper_saturation_claim():
    # "spMVM saturates at about four threads per locality domain"
    from repro.machine import westmere_ep_node

    dom = westmere_ep_node().domains[0]
    assert dom.spmv_curve.saturation_point(0.93) <= 4


def test_triad_arithmetic():
    assert triad_traffic(1000) == 4 * 8 * 1000  # write-allocate included
    assert triad_traffic(1000, write_allocate=False) == 3 * 8 * 1000
    assert triad_flops(1000) == 2000
    assert WRITE_ALLOCATE_FACTOR == pytest.approx(4.0 / 3.0)


def test_host_triad_measurement_runs():
    r = measure_host_triad(n=2_000_000, repetitions=2)
    assert r.bandwidth > 1e8  # any real machine exceeds 100 MB/s
    assert r.bandwidth_gb == pytest.approx(r.bandwidth / 1e9)
    assert r.best_seconds > 0
