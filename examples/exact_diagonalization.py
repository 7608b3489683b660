#!/usr/bin/env python
"""Exact diagonalization of the Holstein-Hubbard model (paper test case 1).

The full application workflow behind the paper's first matrix:

1. build the second-quantised Hamiltonian (electrons ⊗ phonons),
2. find the ground state with a *distributed* Lanczos solver — every
   matrix application is the halo-exchanged spMVM running SPMD on
   mpilite ranks, every inner product an allreduce,
3. verify against a serial Lanczos run and (at this scale) dense
   diagonalisation,
4. compute the spectral density with the kernel polynomial method and
   propagate a quantum state in time with the Chebyshev expansion —
   the paper's "computation of spectral properties [10] or time
   evolution of quantum states [11]".

Run:  python examples/exact_diagonalization.py
"""

import numpy as np

from repro.core import build_halo_plan, scatter_vector
from repro.matrices import HolsteinHubbardParams, build_holstein_hubbard
from repro.mpilite import PerRank, run_spmd
from repro.solvers import (
    ChebyshevPropagator,
    DistributedOperator,
    SerialOperator,
    kpm_spectrum,
    lanczos,
    spectral_bounds,
)
from repro.sparse import partition_matrix


def main() -> None:
    params = HolsteinHubbardParams(
        n_sites=4, n_up=2, n_dn=2, n_phonon_modes=2, max_phonons=6,
        hubbard_u=4.0, omega0=1.0, coupling_g=0.4,
    )
    H = build_holstein_hubbard(params, ordering="HMeP")
    print(f"Holstein-Hubbard: dim {H.nrows} ({params.electron_dim} el x "
          f"{params.phonon_dim} ph), nnz {H.nnz}")

    # -- distributed Lanczos ------------------------------------------
    nranks = 4
    partition = partition_matrix(H, nranks)
    plan = build_halo_plan(H, partition, with_matrices=True)
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal(H.nrows)

    def rank_fn(comm, halo):
        with DistributedOperator(comm, halo, scheme="task_mode") as op:
            res = lanczos(
                op,
                max_iter=150,
                tol=1e-9,
                v0=scatter_vector(v0, partition, comm.rank),
                seed=0,
            )
        return res.ground_energy

    energies = run_spmd(nranks, rank_fn, PerRank(plan.ranks))
    e_dist = energies[0]
    assert all(abs(e - e_dist) < 1e-12 for e in energies), "ranks disagree!"

    # -- serial cross-checks ------------------------------------------
    op = SerialOperator(H)
    e_serial = lanczos(op, max_iter=150, tol=1e-9, v0=v0).ground_energy
    e_dense = float(np.linalg.eigvalsh(H.to_dense())[0]) if H.nrows <= 3000 else None
    print(f"ground-state energy:  distributed Lanczos {e_dist:+.10f}")
    print(f"                      serial Lanczos      {e_serial:+.10f}")
    if e_dense is not None:
        print(f"                      dense eigh          {e_dense:+.10f}")

    # -- spectral density via KPM --------------------------------------
    bounds = spectral_bounds(op)
    spectrum = kpm_spectrum(op, bounds, n_moments=96, n_random=6).normalized()
    peak = spectrum.energies[int(np.argmax(spectrum.density))]
    print(f"KPM: spectrum in [{bounds[0]:.2f}, {bounds[1]:.2f}], "
          f"DOS peak near E = {peak:.2f}")

    # -- Chebyshev time evolution --------------------------------------
    prop = ChebyshevPropagator(op, bounds)
    psi0 = np.zeros(H.nrows, dtype=complex)
    psi0[0] = 1.0
    times = [0.0]
    survival = [1.0]
    psi = psi0
    for step in range(5):
        psi = prop.step(psi, 0.4)
        times.append(0.4 * (step + 1))
        survival.append(abs(np.vdot(psi0, psi)) ** 2)
    print("time evolution |<psi0|psi(t)>|^2:",
          ", ".join(f"t={t:.1f}: {s:.4f}" for t, s in zip(times, survival)))
    print(f"norm conservation: |psi| = {np.linalg.norm(psi):.12f} (should be 1)")


if __name__ == "__main__":
    main()
