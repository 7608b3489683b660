"""Lanczos and CG: convergence, accuracy, distributed equivalence."""

import numpy as np
import pytest

from repro.core import build_halo_plan, scatter_vector
from repro.core.spmvm import lower_comm_plan
from repro.matrices import poisson_2d, random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.solvers import (
    CGResult,
    DistributedOperator,
    SerialOperator,
    conjugate_gradient,
    ground_state,
    lanczos,
    spectral_bounds,
)
from repro.sparse import CSRMatrix, partition_matrix


@pytest.fixture(scope="module")
def sym_matrix(hmep_tiny):
    return hmep_tiny


def test_lanczos_lowest_eigenvalues(sym_matrix):
    op = SerialOperator(sym_matrix)
    res = lanczos(op, max_iter=150, tol=1e-9, n_eigenvalues=3)
    dense = np.sort(np.linalg.eigvalsh(sym_matrix.to_dense()))
    assert np.allclose(res.eigenvalues, dense[:3], atol=1e-7)
    assert np.all(res.residuals <= 1e-8)


def test_lanczos_ritz_vector(sym_matrix):
    op = SerialOperator(sym_matrix)
    energy, vec = ground_state(op, max_iter=150, tol=1e-10, want_vector=True)
    assert vec is not None
    resid = np.linalg.norm(sym_matrix @ vec - energy * vec)
    assert resid < 1e-6
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)


def test_lanczos_invariant_subspace_early_exit():
    # identity matrix: converges in one step
    op = SerialOperator(CSRMatrix.identity(20))
    res = lanczos(op, max_iter=50)
    assert res.eigenvalues[0] == pytest.approx(1.0)
    assert res.iterations <= 2


def test_lanczos_deterministic_seed(sym_matrix):
    op = SerialOperator(sym_matrix)
    a = lanczos(op, max_iter=40, seed=3)
    b = lanczos(op, max_iter=40, seed=3)
    assert np.array_equal(a.alpha, b.alpha)


def test_lanczos_zero_start_rejected(sym_matrix):
    op = SerialOperator(sym_matrix)
    with pytest.raises(ValueError, match="nonzero"):
        lanczos(op, v0=np.zeros(sym_matrix.nrows))


def test_spectral_bounds_enclose_spectrum(sym_matrix):
    lo, hi = spectral_bounds(SerialOperator(sym_matrix))
    w = np.linalg.eigvalsh(sym_matrix.to_dense())
    assert lo <= w[0] + 1e-6
    assert hi >= w[-1] - 1e-6


def test_distributed_lanczos_equals_serial(sym_matrix):
    partition = partition_matrix(sym_matrix, 3)
    plan = build_halo_plan(sym_matrix, partition, with_matrices=True)
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal(sym_matrix.nrows)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo)
        return lanczos(op, max_iter=120, tol=1e-9,
                       v0=scatter_vector(v0, partition, comm.rank)).ground_energy

    energies = run_spmd(3, fn, PerRank(plan.ranks))
    serial = lanczos(SerialOperator(sym_matrix), max_iter=120, tol=1e-9, v0=v0).ground_energy
    assert np.allclose(energies, serial, atol=1e-9)


# ----------------------------------------------------------------------
# CG
# ----------------------------------------------------------------------
def test_cg_solves_poisson(rng):
    A = poisson_2d(15)
    x_true = rng.standard_normal(A.nrows)
    b = A @ x_true
    res = conjugate_gradient(SerialOperator(A), b, tol=1e-10, max_iter=2000)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)
    assert res.residual_history[-1] <= 1e-10
    assert res.residual_history[0] == pytest.approx(1.0)


def test_cg_zero_rhs():
    A = poisson_2d(5)
    res = conjugate_gradient(SerialOperator(A), np.zeros(A.nrows))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0)


def test_cg_initial_guess(rng):
    A = poisson_2d(10)
    x_true = rng.standard_normal(A.nrows)
    b = A @ x_true
    exact_start = conjugate_gradient(SerialOperator(A), b, x0=x_true.copy(), tol=1e-10)
    assert exact_start.iterations == 0
    assert exact_start.converged


def test_cg_detects_indefinite_operator(rng):
    d = np.diag(np.concatenate([np.ones(5), -np.ones(5)]))
    A = CSRMatrix.from_dense(d)
    b = rng.standard_normal(10)
    with pytest.raises(ValueError, match="positive definite"):
        conjugate_gradient(SerialOperator(A), b, max_iter=50)


def test_cg_jacobi_preconditioner_helps(rng):
    # badly scaled SPD system: diagonal preconditioning must reduce iterations
    n = 200
    scale = np.logspace(0, 4, n)
    A_dense = np.diag(scale)
    A_dense[0, 1] = A_dense[1, 0] = 1.0
    A = CSRMatrix.from_dense(A_dense)
    b = rng.standard_normal(n)
    plain = conjugate_gradient(SerialOperator(A), b, tol=1e-10, max_iter=5000)
    inv_diag = 1.0 / scale
    precond = conjugate_gradient(
        SerialOperator(A), b, tol=1e-10, max_iter=5000,
        preconditioner=lambda r: inv_diag * r,
    )
    assert precond.iterations < plain.iterations


def test_cg_rhs_shape_validated():
    A = poisson_2d(4)
    with pytest.raises(ValueError, match="shape"):
        conjugate_gradient(SerialOperator(A), np.zeros(3))


def test_distributed_cg_equals_serial(samg_tiny, rng):
    b = samg_tiny @ rng.standard_normal(samg_tiny.nrows)
    serial = conjugate_gradient(SerialOperator(samg_tiny), b, tol=1e-9, max_iter=3000)
    partition = partition_matrix(samg_tiny, 4)
    plan = build_halo_plan(samg_tiny, partition, with_matrices=True)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo, scheme="no_overlap")
        res = conjugate_gradient(op, scatter_vector(b, partition, comm.rank),
                                 tol=1e-9, max_iter=3000)
        return res.x, res.iterations

    out = run_spmd(4, fn, PerRank(plan.ranks))
    x_dist = np.concatenate([o[0] for o in out])
    # distributed reductions sum in a different order, so iteration counts
    # may differ by a round-off-induced step or two
    assert abs(out[0][1] - serial.iterations) <= 2
    assert np.allclose(x_dist, serial.x, atol=1e-7)


def test_distributed_cg_node_aware_bit_identical(samg_tiny, rng):
    # the node-aware exchange only re-routes copies, so every CG iterate
    # — and hence the solution — is bit-identical to the classic path
    b = samg_tiny @ rng.standard_normal(samg_tiny.nrows)
    partition = partition_matrix(samg_tiny, 4)
    plan = build_halo_plan(samg_tiny, partition, with_matrices=True)
    cplan = lower_comm_plan(plan, 4, "node-aware", ranks_per_node=2)

    def fn(comm, halo, use_plan):
        op = DistributedOperator(comm, halo, scheme="task_mode",
                                 comm_plan=cplan if use_plan else None)
        res = conjugate_gradient(op, scatter_vector(b, partition, comm.rank),
                                 tol=1e-9, max_iter=3000)
        return res.x, res.iterations

    classic = run_spmd(4, lambda c, h: fn(c, h, False), PerRank(plan.ranks))
    node_aware = run_spmd(4, lambda c, h: fn(c, h, True), PerRank(plan.ranks))
    for (xc, itc), (xn, itn) in zip(classic, node_aware):
        assert itc == itn
        assert np.array_equal(xc, xn)


def _unfused_cg(op, b, tol, max_iter):
    """The loop before ``r·r`` was reused: ``norm(r)`` for the convergence
    test and a separate ``dot(r, z)`` (z is r), three reductions per
    iteration.  Returns ``(x, residual_history)``."""
    x = np.zeros_like(b)
    r = b - op.matvec(x)
    b_norm = op.norm(b)
    p = r.copy()
    rz = op.dot(r, r)
    history = [op.norm(r) / b_norm]
    for _ in range(max_iter):
        if history[-1] <= tol:
            break
        ap = op.matvec(p)
        alpha = rz / op.dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        history.append(op.norm(r) / b_norm)
        if history[-1] <= tol:
            break
        rz_new = op.dot(r, r)
        p = r + (rz_new / rz) * p
        rz = rz_new
    return x, history


def test_cg_reuses_rr_bit_identically_with_two_reductions_per_iteration(rng):
    A = poisson_2d(21)
    b = rng.standard_normal(A.nrows)
    partition = partition_matrix(A, 2)
    plan = build_halo_plan(A, partition, with_matrices=True)

    def fn(comm, halo):
        b_local = scatter_vector(b, partition, comm.rank)
        with DistributedOperator(comm, halo) as old_op, DistributedOperator(comm, halo) as op:
            x_old, history_old = _unfused_cg(old_op, b_local, 1e-10, 2000)
            res = conjugate_gradient(op, b_local, tol=1e-10, max_iter=2000)
            return x_old, history_old, dict(old_op.counters), res, dict(op.counters)

    for x_old, history_old, old_counters, res, counters in run_spmd(2, fn, PerRank(plan.ranks)):
        assert res.converged and res.iterations > 50
        assert res.residual_history == history_old  # every iterate, bit for bit
        assert np.array_equal(res.x, x_old)
        assert old_counters["reductions"] == 3 * res.iterations + 2
        assert counters["reductions"] == 2 * res.iterations + 2
        assert counters["exchanges"] == old_counters["exchanges"] == res.iterations + 1


class _CountingOperator(SerialOperator):
    def __init__(self, A):
        super().__init__(A)
        self.matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return super().matvec(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cg_rejects_a_non_finite_rhs_before_the_first_sweep(bad):
    # used to run all max_iter iterations and return converged=False, nan
    op = _CountingOperator(poisson_2d(6))
    b = np.ones(op.local_size)
    b[7] = bad
    with pytest.raises(ValueError, match=r"right-hand side is not finite \(\|\|b\|\| = (nan|inf)\)"):
        conjugate_gradient(op, b, max_iter=5000)
    assert op.matvecs == 0


@pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan])
def test_cg_rejects_a_tolerance_that_is_not_nonnegative(tol):
    # tol=-1 used to end, 228 iterations in, in "not positive definite (p·Ap = 0)"
    op = _CountingOperator(poisson_2d(6))
    with pytest.raises(ValueError, match="tol must be >= 0"):
        conjugate_gradient(op, np.ones(op.local_size), tol=tol)
    assert op.matvecs == 0
    assert conjugate_gradient(op, np.ones(op.local_size), tol=0.0, max_iter=3).iterations == 3


def test_cg_trips_on_a_nan_at_the_first_iteration(rng):
    # `pap <= 0` is False for a NaN: the loop used to run to max_iter
    op = _CountingOperator(poisson_2d(6))
    x0 = np.zeros(op.local_size)
    x0[3] = np.nan
    with pytest.raises(ValueError, match=r"not finite \(p·Ap = nan at iteration 1\)"):
        conjugate_gradient(op, rng.standard_normal(op.local_size), x0=x0, max_iter=5000)
    assert op.matvecs == 2  # the initial residual and the first search direction
