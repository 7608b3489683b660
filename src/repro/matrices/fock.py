"""Occupation-number (Fock) bases for fermions and bosons.

The Holstein-Hubbard Hamiltonian of Sect. 1.3.1 lives on the tensor
product of an electronic (fermionic) and a phononic (bosonic) Fock
space.  This module enumerates both bases and provides the elementary
second-quantised operators as small CSR matrices, from which the full
Hamiltonian is assembled by Kronecker products.

Conventions
-----------
* Fermionic states of one spin species on ``L`` sites are bitmasks
  (bit ``i`` set = site ``i`` occupied); the Jordan-Wigner sign of
  ``c†_i c_j`` counts occupied sites strictly between ``i`` and ``j``.
* Bosonic states are occupation tuples ``(n_0, …, n_{L-1})`` with a
  total-occupation truncation — either ``sum(n) <= M`` ("atmost", the
  paper's basis: 5 effective modes, M=15, dimension C(20,5)=15504) or
  ``sum(n) == M`` ("exact").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.util import check_in, check_nonnegative_int, check_positive_int

__all__ = ["SpinBasis", "FermionBasis", "BosonBasis"]


# ----------------------------------------------------------------------
# fermions
# ----------------------------------------------------------------------
def _popcount_between(mask: int, i: int, j: int) -> int:
    """Occupied sites strictly between *i* and *j* (exclusive) in *mask*."""
    lo, hi = (i, j) if i < j else (j, i)
    between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return bin(mask & between).count("1")


@dataclass(frozen=True)
class SpinBasis:
    """All states of ``n`` spinless fermions on ``L`` sites.

    States are bitmasks enumerated in increasing numeric order, so the
    basis index is reproducible.
    """

    n_sites: int
    n_particles: int

    def __post_init__(self) -> None:
        check_positive_int(self.n_sites, "n_sites")
        check_nonnegative_int(self.n_particles, "n_particles")
        if self.n_particles > self.n_sites:
            raise ValueError(
                f"cannot place {self.n_particles} fermions on {self.n_sites} sites"
            )

    def masks(self) -> list[int]:
        """All occupation bitmasks in increasing order."""
        out = [
            sum(1 << s for s in sites)
            for sites in combinations(range(self.n_sites), self.n_particles)
        ]
        out.sort()
        return out

    @property
    def dim(self) -> int:
        """Binomial(L, n)."""
        from math import comb

        return comb(self.n_sites, self.n_particles)

    def index(self) -> dict[int, int]:
        """Mapping bitmask -> basis index."""
        return {m: k for k, m in enumerate(self.masks())}

    def density_diagonals(self) -> np.ndarray:
        """``(L, dim)`` array: occupation of site *i* in state *k*."""
        masks = self.masks()
        out = np.zeros((self.n_sites, len(masks)))
        for k, m in enumerate(masks):
            for i in range(self.n_sites):
                if m >> i & 1:
                    out[i, k] = 1.0
        return out

    def hopping_matrix(self, bonds: list[tuple[int, int]], t: float = 1.0) -> CSRMatrix:
        """``-t Σ_{(i,j) in bonds} (c†_i c_j + c†_j c_i)`` with JW signs.

        Returns a real symmetric ``dim x dim`` CSR matrix.
        """
        masks = self.masks()
        lookup = self.index()
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for k, m in enumerate(masks):
            for (i, j) in bonds:
                for src, dst in ((j, i), (i, j)):  # c†_dst c_src
                    if (m >> src & 1) and not (m >> dst & 1):
                        new = (m & ~(1 << src)) | (1 << dst)
                        sign = -1.0 if _popcount_between(m, src, dst) % 2 else 1.0
                        rows.append(lookup[new])
                        cols.append(k)
                        vals.append(-t * sign)
        return COOMatrix(
            len(masks), len(masks),
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals),
        ).to_csr()


@dataclass(frozen=True)
class FermionBasis:
    """Product basis of spin-up and spin-down fermions on ``L`` sites.

    The combined index is ``k_up * dim_dn + k_dn`` ("down fastest").
    For the paper's electron sector: 6 sites, 3 up + 3 down,
    dimension ``C(6,3)^2 = 400``.
    """

    n_sites: int
    n_up: int
    n_dn: int

    @property
    def up(self) -> SpinBasis:
        """Spin-up factor basis."""
        return SpinBasis(self.n_sites, self.n_up)

    @property
    def dn(self) -> SpinBasis:
        """Spin-down factor basis."""
        return SpinBasis(self.n_sites, self.n_dn)

    @property
    def dim(self) -> int:
        """Total electronic dimension."""
        return self.up.dim * self.dn.dim

    def density_diagonals(self) -> np.ndarray:
        """``(L, dim)`` total electron density ``n_i = n_i↑ + n_i↓`` per state."""
        du = self.up.density_diagonals()
        dd = self.dn.density_diagonals()
        ones_u = np.ones(self.up.dim)
        ones_d = np.ones(self.dn.dim)
        return np.einsum("iu,d->iud", du, ones_d).reshape(self.n_sites, -1) + np.einsum(
            "u,id->iud", ones_u, dd
        ).reshape(self.n_sites, -1)

    def double_occupancy_diagonal(self) -> np.ndarray:
        """``Σ_i n_i↑ n_i↓`` per basis state (the Hubbard-U diagonal)."""
        du = self.up.density_diagonals()
        dd = self.dn.density_diagonals()
        return np.einsum("iu,id->ud", du, dd).reshape(-1)

    def hopping_matrix(self, bonds: list[tuple[int, int]], t: float = 1.0) -> CSRMatrix:
        """Kinetic energy on the product space: ``H_up ⊗ I + I ⊗ H_dn``."""
        from repro.sparse.kron import kron

        h_up = self.up.hopping_matrix(bonds, t)
        h_dn = self.dn.hopping_matrix(bonds, t)
        left = kron(h_up, CSRMatrix.identity(self.dn.dim))
        right = kron(CSRMatrix.identity(self.up.dim), h_dn)
        return left.add(right)


# ----------------------------------------------------------------------
# bosons
# ----------------------------------------------------------------------
def _compositions_atmost(n_modes: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All occupation tuples with ``sum <= max_total``, lexicographic order."""
    state = [0] * n_modes

    def rec(pos: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if pos == n_modes:
            yield tuple(state)
            return
        for n in range(remaining + 1):
            state[pos] = n
            yield from rec(pos + 1, remaining - n)
        state[pos] = 0

    yield from rec(0, max_total)


@dataclass(frozen=True)
class BosonBasis:
    """Bosonic occupation basis on ``n_modes`` modes with a total cutoff.

    ``truncation='atmost'`` keeps states with ``Σ n_i <= max_total``
    (dimension ``C(max_total + n_modes, n_modes)``);
    ``truncation='exact'`` keeps ``Σ n_i == max_total``.
    """

    n_modes: int
    max_total: int
    truncation: str = "atmost"

    def __post_init__(self) -> None:
        check_positive_int(self.n_modes, "n_modes")
        check_nonnegative_int(self.max_total, "max_total")
        check_in(self.truncation, ("atmost", "exact"), "truncation")

    def states(self) -> list[tuple[int, ...]]:
        """All occupation tuples, in lexicographic order."""
        all_states = _compositions_atmost(self.n_modes, self.max_total)
        if self.truncation == "exact":
            return [s for s in all_states if sum(s) == self.max_total]
        return list(all_states)

    @property
    def dim(self) -> int:
        """Basis dimension."""
        from math import comb

        if self.truncation == "atmost":
            return comb(self.max_total + self.n_modes, self.n_modes)
        return comb(self.max_total + self.n_modes - 1, self.n_modes - 1)

    def index(self) -> dict[tuple[int, ...], int]:
        """Mapping occupation tuple -> basis index."""
        return {s: k for k, s in enumerate(self.states())}

    def total_number_diagonal(self) -> np.ndarray:
        """``Σ_i b†_i b_i`` per basis state (the phonon energy diagonal)."""
        return np.asarray([float(sum(s)) for s in self.states()])

    def displacement_matrix(self, mode: int) -> CSRMatrix:
        """The symmetric displacement operator ``b†_i + b_i`` for one mode.

        Within an ``exact`` truncation the operator has no matrix elements
        (it changes the total number), so callers coupling phonons with an
        exact cutoff should use two neighbouring sectors; the ``atmost``
        basis — the one the paper uses — is closed under truncation.
        """
        if not (0 <= mode < self.n_modes):
            raise IndexError(f"mode {mode} out of range (n_modes={self.n_modes})")
        states = self.states()
        lookup = self.index()
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for k, s in enumerate(states):
            raised = list(s)
            raised[mode] += 1
            target = lookup.get(tuple(raised))
            if target is not None:
                amp = float(np.sqrt(s[mode] + 1))
                rows.extend((target, k))
                cols.extend((k, target))
                vals.extend((amp, amp))
        return COOMatrix(
            len(states), len(states),
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals),
        ).to_csr()
