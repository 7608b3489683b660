"""Code-balance model: the paper's Sect. 1.2 / Sect. 2 arithmetic."""

import numpy as np
import pytest

from repro.model import (
    CodeBalanceModel,
    code_balance,
    code_balance_split,
    kappa_from_measurement,
    max_performance,
    split_penalty,
)


def test_eq1_values():
    # Nnzr = 15, kappa = 0: B = 6 + 12/15 = 6.8 bytes/flop
    assert code_balance(15.0) == pytest.approx(6.8)
    # with the paper's kappa = 2.5: 8.05
    assert code_balance(15.0, 2.5) == pytest.approx(8.05)


def test_eq2_values():
    assert code_balance_split(15.0) == pytest.approx(6.0 + 20.0 / 15.0)
    assert code_balance_split(7.0) == pytest.approx(6.0 + 20.0 / 7.0)


def test_paper_max_performance_numbers():
    # 18.1 GB/s socket bandwidth -> 2.66 GFlop/s at kappa=0
    assert max_performance(18.1e9, 15.0) / 1e9 == pytest.approx(2.66, abs=0.01)
    # STREAM 21.2 GB/s -> 3.12 GFlop/s
    assert max_performance(21.2e9, 15.0) / 1e9 == pytest.approx(3.12, abs=0.01)
    # with kappa=2.5 the measured 2.25 GFlop/s is recovered
    assert max_performance(18.1e9, 15.0, 2.5) / 1e9 == pytest.approx(2.25, abs=0.01)


def test_kappa_from_measurement_recovers_paper_value():
    kappa = kappa_from_measurement(2.25e9, 18.1e9, 15.0)
    assert kappa == pytest.approx(2.5, abs=0.05)


def test_kappa_from_measurement_clamps_to_zero():
    # better-than-compulsory measurement (noise) must not go negative
    assert kappa_from_measurement(5e9, 18.1e9, 15.0) == 0.0


def test_split_penalty_range():
    # paper: between 15% (Nnzr=7) and 8% (Nnzr=15) for kappa=0
    assert 0.12 <= split_penalty(7.0) <= 0.15
    assert 0.06 <= split_penalty(15.0) <= 0.09
    # and less for kappa > 0
    assert split_penalty(7.0, 2.5) < split_penalty(7.0, 0.0)


def test_model_bundle_consistency():
    m = CodeBalanceModel(nnzr=15.0, kappa=2.5)
    bw = 18.1e9
    assert m.performance(bw) == pytest.approx(bw / m.balance())
    assert m.balance(split=True) > m.balance()


def test_invalid_inputs():
    with pytest.raises(ValueError):
        code_balance(0.0)
    with pytest.raises(ValueError):
        code_balance(10.0, -1.0)
    with pytest.raises(ValueError):
        max_performance(-5.0, 10.0)
