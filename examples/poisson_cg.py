#!/usr/bin/env python
"""Poisson on a car geometry: CG serial and SPMD (paper test case 2).

The workflow behind the paper's second matrix:

1. mesh a synthetic car body with a quasi-uniform vertex cloud and
   assemble the finite-volume Laplacian (Nnzr ≈ 7, like sAMG's matrix),
2. solve ``A u = f`` with conjugate gradients on the serial operator,
3. run the same solve SPMD: distributed CG over mpilite ranks with the
   halo-exchanged spMVM as the operator, which takes the same number of
   iterations.

Run:  python examples/poisson_cg.py
"""

import numpy as np

from repro.core import build_halo_plan, scatter_vector
from repro.matrices import build_samg_like
from repro.mpilite import PerRank, run_spmd
from repro.solvers import DistributedOperator, SerialOperator, conjugate_gradient
from repro.sparse import matrix_stats, partition_matrix


def main() -> None:
    A = build_samg_like(8000, seed=1)
    print(f"sAMG-like matrix: {matrix_stats(A, check_symmetry=False).describe()}")
    rng = np.random.default_rng(3)
    u_true = rng.standard_normal(A.nrows)
    f = A @ u_true

    # -- serial CG -------------------------------------------------------
    serial = conjugate_gradient(SerialOperator(A), f, tol=1e-8, max_iter=2000)
    print(f"serial CG         : {serial.iterations:4d} iterations, "
          f"rel resid {serial.residual_history[-1]:.1e}")
    err = float(np.abs(serial.x - u_true).max())
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
          f"max |u - u_serial| = {float(np.abs(u_dist - serial.x).max()):.2e}")


if __name__ == "__main__":
    main()
