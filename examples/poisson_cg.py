#!/usr/bin/env python
"""Poisson on a car geometry: AMG-preconditioned CG (paper test case 2).

The workflow behind the paper's second matrix:

1. mesh a synthetic car body with a quasi-uniform vertex cloud and
   assemble the finite-volume Laplacian (Nnzr ≈ 7, like sAMG's matrix),
2. build a Ruge-Stüben AMG hierarchy on it,
3. solve ``A u = f`` three ways — plain CG, AMG V-cycles, and
   AMG-preconditioned CG — and compare iteration counts,
4. run the same solve SPMD: distributed CG over mpilite ranks with the
   halo-exchanged spMVM as the operator.

Run:  python examples/poisson_cg.py
"""

import numpy as np

from repro.core import build_halo_plan, scatter_vector
from repro.matrices import build_samg_like
from repro.mpilite import PerRank, run_spmd
from repro.solvers import DistributedOperator, SerialOperator, build_amg, conjugate_gradient
from repro.sparse import matrix_stats, partition_matrix


def main() -> None:
    A = build_samg_like(8000, seed=1)
    print(f"sAMG-like matrix: {matrix_stats(A, check_symmetry=False).describe()}")
    rng = np.random.default_rng(3)
    u_true = rng.standard_normal(A.nrows)
    f = A @ u_true
    op = SerialOperator(A)

    # -- plain CG -------------------------------------------------------
    plain = conjugate_gradient(op, f, tol=1e-8, max_iter=2000)
    print(f"plain CG          : {plain.iterations:4d} iterations, "
          f"rel resid {plain.residual_history[-1]:.1e}")

    # -- AMG hierarchy ---------------------------------------------------
    amg = build_amg(A, theta=0.25)
    sizes = " -> ".join(str(l.A.nrows) for l in amg.levels)
    print(f"AMG hierarchy     : {amg.n_levels} levels ({sizes} -> "
          f"{amg.coarse_dense.shape[0]} dense), "
          f"operator complexity {amg.operator_complexity():.2f}")
    _, cycles, rel = amg.solve(f, tol=1e-8)
    print(f"AMG V-cycles      : {cycles:4d} cycles, rel resid {rel:.1e}")

    # -- AMG-preconditioned CG -------------------------------------------
    pcg = conjugate_gradient(op, f, tol=1e-8, max_iter=2000,
                             preconditioner=amg.as_preconditioner())
    print(f"AMG-CG            : {pcg.iterations:4d} iterations, "
          f"rel resid {pcg.residual_history[-1]:.1e}")
    err = float(np.abs(pcg.x - u_true).max())
    print(f"solution error    : max |u - u_true| = {err:.2e}")

    # -- distributed CG ----------------------------------------------------
    nranks = 4
    partition = partition_matrix(A, nranks)
    plan = build_halo_plan(A, partition, with_matrices=True)

    def rank_fn(comm, halo):
        with DistributedOperator(comm, halo, scheme="task_mode") as dop:
            res = conjugate_gradient(
                dop, scatter_vector(f, partition, comm.rank), tol=1e-8, max_iter=2000
            )
        return res.x, res.iterations

    results = run_spmd(nranks, rank_fn, PerRank(plan.ranks))
    u_dist = np.concatenate([r[0] for r in results])
    print(f"distributed CG    : {results[0][1]:4d} iterations on {nranks} ranks, "
          f"max |u - u_serial| = {float(np.abs(u_dist - plain.x).max()):.2e}")


if __name__ == "__main__":
    main()
