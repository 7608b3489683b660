"""Chebyshev propagation and the KPM spectral density."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.solvers import (
    ChebyshevPropagator,
    SerialOperator,
    chebyshev_moments,
    jackson_kernel,
    kpm_spectrum,
    spectral_bounds,
)


@pytest.fixture(scope="module")
def ham_op(hmep_tiny):
    return SerialOperator(hmep_tiny)


@pytest.fixture(scope="module")
def ham_bounds(ham_op):
    return spectral_bounds(ham_op)


# ----------------------------------------------------------------------
# Chebyshev time evolution
# ----------------------------------------------------------------------
def test_chebyshev_matches_dense_expm(hmep_tiny, ham_op, ham_bounds):
    psi0 = np.zeros(hmep_tiny.nrows, dtype=complex)
    psi0[3] = 1.0
    prop = ChebyshevPropagator(ham_op, ham_bounds)
    psi = prop.step(psi0, 0.7)
    ref = expm(-1j * hmep_tiny.to_dense() * 0.7) @ psi0
    assert np.abs(psi - ref).max() < 1e-10


def test_chebyshev_unitarity(ham_op, ham_bounds, rng):
    psi0 = rng.standard_normal(540) + 1j * rng.standard_normal(540)
    psi0 /= np.linalg.norm(psi0)
    prop = ChebyshevPropagator(ham_op, ham_bounds)
    for t in (0.1, 1.0, 3.0):
        psi = prop.step(psi0, t)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)


def test_chebyshev_order_grows_with_time(ham_op, ham_bounds):
    prop = ChebyshevPropagator(ham_op, ham_bounds)
    assert prop.expansion_order(2.0) > prop.expansion_order(0.2)


def test_chebyshev_evolution_composes(ham_op, ham_bounds, rng):
    # two half steps equal one full step (up to truncation error)
    psi0 = rng.standard_normal(540) + 0j
    psi0 /= np.linalg.norm(psi0)
    prop = ChebyshevPropagator(ham_op, ham_bounds)
    one = prop.step(psi0, 1.0)
    two = prop.step(prop.step(psi0, 0.5), 0.5)
    assert np.abs(one - two).max() < 1e-9


def test_chebyshev_invalid_bounds(ham_op):
    with pytest.raises(ValueError, match="bounds"):
        ChebyshevPropagator(ham_op, (2.0, 1.0))


# ----------------------------------------------------------------------
# KPM
# ----------------------------------------------------------------------
def test_jackson_kernel_shape():
    g = jackson_kernel(64)
    assert g[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(g) < 0)  # strictly decreasing
    assert g[-1] < 0.01


def test_moments_mu0_is_one(ham_op, ham_bounds):
    mu = chebyshev_moments(ham_op, ham_bounds, n_moments=16, n_random=4)
    assert mu[0] == pytest.approx(1.0)
    assert np.all(np.abs(mu) <= 1.0 + 1e-9)  # Chebyshev moments are bounded


def test_kpm_density_normalised_and_positive(ham_op, ham_bounds):
    spec = kpm_spectrum(ham_op, ham_bounds, n_moments=96, n_random=6).normalized()
    integral = np.trapezoid(spec.density, spec.energies)
    assert integral == pytest.approx(1.0, abs=1e-6)
    assert spec.density.min() > -0.02  # Jackson kernel keeps it ~positive


def test_kpm_matches_histogram_of_dense_spectrum(hmep_tiny, ham_op, ham_bounds):
    spec = kpm_spectrum(ham_op, ham_bounds, n_moments=128, n_random=8).normalized()
    w = np.linalg.eigvalsh(hmep_tiny.to_dense())
    # cumulative distributions must agree within a few percent
    grid = np.linspace(w[0], w[-1], 12)[1:-1]
    cdf_kpm = [np.trapezoid(spec.density[spec.energies <= e],
                            spec.energies[spec.energies <= e]) for e in grid]
    cdf_ref = [(w <= e).mean() for e in grid]
    assert np.abs(np.array(cdf_kpm) - np.array(cdf_ref)).max() < 0.06
