"""Fock-space bases: dimensions, operator algebra, hermiticity."""

from math import comb

import numpy as np
import pytest

from repro.matrices import BosonBasis, FermionBasis, SpinBasis


def test_spin_basis_dimension():
    b = SpinBasis(6, 3)
    assert b.dim == comb(6, 3) == 20
    assert len(b.masks()) == 20
    assert all(bin(m).count("1") == 3 for m in b.masks())


def test_spin_basis_rejects_overfilling():
    with pytest.raises(ValueError, match="cannot place"):
        SpinBasis(3, 4)


def test_density_diagonals_sum_to_particle_number():
    b = SpinBasis(5, 2)
    d = b.density_diagonals()
    assert d.shape == (5, b.dim)
    assert np.allclose(d.sum(axis=0), 2.0)


def test_hopping_matrix_is_symmetric_and_particle_conserving():
    b = SpinBasis(4, 2)
    h = b.hopping_matrix([(0, 1), (1, 2), (2, 3), (0, 3)], t=1.0)
    assert h.is_symmetric(tol=1e-14)
    # hopping never leaves the fixed-particle-number space: row sums of
    # the absolute matrix stay bounded by the coordination number
    assert h.nnz > 0


def test_hopping_jordan_wigner_sign():
    # two fermions on a 3-site chain: hop 0->2 over occupied site 1 flips sign
    b = SpinBasis(3, 2)
    h = b.hopping_matrix([(0, 2)], t=1.0)
    masks = b.masks()
    lookup = b.index()
    src = lookup[0b011]  # sites 0,1 occupied
    dst = lookup[0b110]  # sites 1,2 occupied
    dense = h.to_dense()
    # c†_2 c_0 passes over site 1 (occupied): amplitude -t * (-1) = +1
    assert dense[dst, src] == pytest.approx(1.0)


def test_fermion_basis_product_dimension():
    fb = FermionBasis(6, 3, 3)
    assert fb.dim == 400  # the paper's electronic dimension


def test_double_occupancy_range():
    fb = FermionBasis(4, 2, 2)
    docc = fb.double_occupancy_diagonal()
    assert docc.shape == (fb.dim,)
    assert docc.min() >= 0.0
    assert docc.max() <= 2.0


def test_boson_basis_dimensions():
    assert BosonBasis(5, 15, "atmost").dim == comb(20, 5) == 15504  # paper's phonon space
    assert BosonBasis(3, 4, "atmost").dim == comb(7, 3)
    assert BosonBasis(3, 4, "exact").dim == comb(6, 2)
    b = BosonBasis(3, 4)
    assert len(b.states()) == b.dim


def test_boson_states_respect_truncation():
    b = BosonBasis(3, 4, "atmost")
    assert all(sum(s) <= 4 for s in b.states())
    be = BosonBasis(3, 4, "exact")
    assert all(sum(s) == 4 for s in be.states())


def test_displacement_matrix_elements():
    b = BosonBasis(2, 3, "atmost")
    d = b.displacement_matrix(0)
    assert d.is_symmetric(tol=1e-14)
    lookup = b.index()
    dense = d.to_dense()
    # <n+1| b† |n> = sqrt(n+1) between (0,0) and (1,0)
    assert dense[lookup[(1, 0)], lookup[(0, 0)]] == pytest.approx(1.0)
    assert dense[lookup[(2, 0)], lookup[(1, 0)]] == pytest.approx(np.sqrt(2.0))


def test_displacement_zero_in_exact_truncation():
    b = BosonBasis(2, 3, "exact")
    assert b.displacement_matrix(0).nnz == 0


def test_number_diagonals():
    b = BosonBasis(2, 2)
    total = b.total_number_diagonal()
    per_mode = np.asarray([[s[0], s[1]] for s in b.states()], dtype=float)
    assert np.allclose(total, per_mode.sum(axis=1))


def test_displacement_mode_out_of_range():
    with pytest.raises(IndexError):
        BosonBasis(2, 2).displacement_matrix(5)
