"""Lanczos and CG: convergence, accuracy, distributed equivalence."""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_halo_plan, scatter_vector
from repro.core.spmvm import lower_comm_plan
from repro.matrices import poisson_2d, random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.solvers import (
    CGResult,
    DistributedOperator,
    SerialOperator,
    conjugate_gradient,
    lanczos,
    spectral_bounds,
)
from repro.solvers.lanczos import _lanczos_with_basis
from repro.sparse import CSRMatrix, partition_matrix
from repro.sparse.partition import RowPartition
from repro.workload.streams import DOTS_PER_ITERATION


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
    res = lanczos(op, max_iter=150, tol=1e-10, want_vector=True)
    energy, vec = res.ground_energy, res.ritz_vector
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
# the 2-D basis: one block dot + one norm per step, a second pass on demand
# ----------------------------------------------------------------------
class _ReductionCounter(SerialOperator):
    """Counts what a distributed run would post as allreduces."""

    def __init__(self, A):
        super().__init__(A)
        self.reductions = 0

    def dot(self, x, y):
        self.reductions += 1
        return super().dot(x, y)

    def norm(self, x):
        self.reductions += 1
        return super().norm(x)


def _full_krylov_run(dense, seed):
    """Lanczos to the full Krylov dimension: ``(result, basis, second passes)``."""
    op = _ReductionCounter(CSRMatrix.from_dense(dense))
    n = op.local_size
    res, V = _lanczos_with_basis(op, n, 0.0, 1, seed, True, False, None)
    extra = op.reductions - (2 * res.iterations + 1)  # + 1: the norm of the start vector
    assert extra % 2 == 0
    return res, V, extra // 2


def _symmetric(n, seed, kind):
    """Small dense symmetric test matrices.  ``centred``: spectrum around
    zero, |α| < β, one pass is enough until β collapses at step n.
    ``shifted`` / ``spd`` / ``clustered``: |α| > β, where a single
    classical pass feeds the last two vectors' overlap back amplified."""
    m = np.random.default_rng(seed).standard_normal((n, n))
    m = (m + m.T) / 2
    if kind == "shifted":
        m += 100.0 * np.eye(n)
    elif kind == "spd":
        m = m @ m.T
    elif kind == "clustered":
        m = np.diag(np.linspace(1.0, 2.0, n)) + 1e-3 * m
    return m


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["centred", "shifted", "spd", "clustered"]),
)
def test_lanczos_basis_stays_orthonormal_to_the_full_krylov_dimension(n, seed, kind):
    dense = _symmetric(n, seed, kind)
    res, V, second_passes = _full_krylov_run(dense, seed)
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12
    lowest = np.linalg.eigvalsh(dense)[0]
    assert abs(res.eigenvalues[0] - lowest) <= 1e-10 * max(1.0, abs(lowest))
    # the last step of a full-length run leaves nothing but rounding:
    # one pass cannot be enough there
    assert second_passes >= 1 or res.iterations < n


def test_lanczos_second_pass_runs_where_alpha_dominates_and_not_on_the_hamiltonian(sym_matrix):
    # a spectrum far from zero: the second pass is what holds the basis
    # together long before the end (one pass: max|VVᵀ - I| ~ 1e-8 here)
    res, V, second_passes = _full_krylov_run(_symmetric(23, 1, "shifted"), 0)
    assert 5 <= second_passes < res.iterations
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12
    # the paper's Hamiltonian: never — two reductions per step, exactly
    op = _ReductionCounter(sym_matrix)
    res, V = _lanczos_with_basis(op, 150, 1e-9, 1, 0, True, False, None)
    assert res.iterations > 40
    assert op.reductions == 2 * res.iterations + 1
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-13


def test_lanczos_without_reorthogonalisation_holds_two_rows(sym_matrix):
    op = _ReductionCounter(sym_matrix)
    res, V = _lanczos_with_basis(op, 60, 0.0, 1, 1, False, False, None)
    assert V.shape == (2, sym_matrix.nrows) and res.iterations == 60
    assert op.reductions == 2 * 60 + 1
    assert abs(V[0] @ V[1]) <= 1e-14  # v₆₀ and v₆₁
    # the same recurrence with the basis kept: same tridiagonal matrix
    kept = lanczos(SerialOperator(sym_matrix), max_iter=60, tol=0.0, seed=1,
                   reorthogonalize=False, want_vector=True)
    assert np.array_equal(kept.alpha, res.alpha) and np.array_equal(kept.beta, res.beta)
    resid = np.linalg.norm(sym_matrix @ kept.ritz_vector - kept.ground_energy * kept.ritz_vector)
    assert resid < 1e-6


def _hmep_plan(A, offsets):
    partition = RowPartition(np.asarray(offsets))
    return partition, build_halo_plan(A, partition, with_matrices=True)


def test_distributed_lanczos_posts_two_reductions_per_iteration(sym_matrix, rng):
    partition, plan = _hmep_plan(sym_matrix, [0, sym_matrix.nrows // 2, sym_matrix.nrows])
    v0 = rng.standard_normal(sym_matrix.nrows)

    def fn(comm, halo):
        with DistributedOperator(comm, halo) as op:
            res = lanczos(op, tol=1e-8, v0=scatter_vector(v0, partition, comm.rank),
                          want_vector=True)
            return res.iterations, dict(op.counters)

    for iterations, counters in run_spmd(2, fn, PerRank(plan.ranks)):
        assert iterations > 40
        # the simulator charges a Lanczos job the same: they cannot drift apart
        assert counters["reductions"] == DOTS_PER_ITERATION["lanczos"] * iterations + 2
        assert counters["reductions"] == 2 * iterations + 2
        assert counters["exchanges"] == iterations


@pytest.mark.parametrize("offsets", [[0, 270, 540], [0, 200, 340, 540], [0, 200, 200, 540]],
                         ids=["2-ranks", "3-ranks", "3-ranks-one-empty"])
def test_distributed_lanczos_matches_serial_to_rounding(sym_matrix, rng, offsets):
    partition, plan = _hmep_plan(sym_matrix, offsets)
    v0 = rng.standard_normal(sym_matrix.nrows)

    def fn(comm, halo):
        with DistributedOperator(comm, halo) as op:
            res = lanczos(op, tol=1e-9, n_eigenvalues=2, want_vector=True,
                          v0=scatter_vector(v0, partition, comm.rank))
            return res.iterations, res.eigenvalues, res.ritz_vector

    out = run_spmd(partition.nparts, fn, PerRank(plan.ranks))
    serial = lanczos(SerialOperator(sym_matrix), tol=1e-9, n_eigenvalues=2, v0=v0,
                     want_vector=True)
    for iterations, eigenvalues, _ in out:
        assert iterations == serial.iterations
        assert np.abs(eigenvalues - serial.eigenvalues).max() <= 1e-12
    vector = np.concatenate([o[2] for o in out])
    assert [o[2].size for o in out] == list(np.diff(offsets))
    assert abs(abs(vector @ serial.ritz_vector) - 1.0) <= 1e-10


def test_dot_takes_a_block_of_rows_in_one_reduction(sym_matrix, rng):
    n = sym_matrix.nrows
    X, y = rng.standard_normal((7, n)), rng.standard_normal(n)
    scale = 1e-12 * np.linalg.norm(X, axis=1).max() * np.linalg.norm(y)

    serial = SerialOperator(sym_matrix)
    one = serial.dot(X[0], y)
    assert type(one) is float and one == float(np.dot(X[0], y))
    block = serial.dot(X, y)
    assert block.shape == (7,)
    assert np.abs(block - [serial.dot(x, y) for x in X]).max() <= scale

    partition, plan = _hmep_plan(sym_matrix, [0, 200, n])

    def fn(comm, halo):
        lo, hi = halo.row_lo, halo.row_hi
        with DistributedOperator(comm, halo) as op:
            one = op.dot(X[0, lo:hi], y[lo:hi])
            old = float(comm.allreduce(float(np.dot(X[0, lo:hi], y[lo:hi]))))
            before = op.counters["reductions"]
            block = op.dot(X[:, lo:hi], y[lo:hi])
            return one, old, block, op.counters["reductions"] - before

    for one, old, block, cost in run_spmd(2, fn, PerRank(plan.ranks)):
        assert type(one) is float and one == old  # the expression CG has always used
        assert cost == 1
        assert np.abs(block - X @ y).max() <= scale


_RSS_SCRIPT = """
import resource
import numpy as np
from repro.core import cached_halo_plan
from repro.matrices import get_matrix
from repro.mpilite import PerRank, run_spmd
from repro.solvers import DistributedOperator, lanczos

A = get_matrix("HMeP", "small").build_cached()
plan = cached_halo_plan(A, 2, with_matrices=True)
v = np.random.default_rng(0).standard_normal(A.nrows)

def fn(comm, halo):
    with DistributedOperator(comm, halo) as op:
        return lanczos(op, tol=1e-8, v0=v[halo.row_lo:halo.row_hi], want_vector=True).iterations

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(12):
    run_spmd(2, fn, PerRank(plan.ranks))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_twelve_solves_in_one_process_do_not_grow_the_resident_set():
    # the basis of a solve goes back to the OS when the solve ends: a
    # heap block per solve stayed in the arena of each (new) rank thread,
    # 128 -> 198 MB over these twelve solves.  A fresh process, because
    # ru_maxrss is a high-water mark and this one's is already set.
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_RSS_SCRIPT)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=240, check=True,
    )
    grown_kb = int(out.stdout.split()[-1])  # Linux reports kilobytes
    assert grown_kb <= 21 * 1024


# ----------------------------------------------------------------------
# Lanczos fails fast and says why
# ----------------------------------------------------------------------
def _on_two_ranks(A, call):
    """Run ``call(op, local_slice_of)`` SPMD on two ranks, raising what
    the rank that failed first raised (``run_spmd`` wraps it)."""
    partition, plan = _hmep_plan(A, [0, A.nrows // 2, A.nrows])

    def fn(comm, halo):
        with DistributedOperator(comm, halo) as op:
            return call(op, lambda v: scatter_vector(v, partition, comm.rank))

    try:
        return run_spmd(2, fn, PerRank(plan.ranks), timeout=30.0)
    except RuntimeError as wrapped:
        raise wrapped.__cause__


def _serially(A, call, sweeps):
    op = _CountingOperator(A)
    try:
        return [call(op, lambda v: v)]
    finally:
        assert op.matvecs == sweeps


@pytest.fixture(params=["serial", "2-ranks"])
def run_lanczos(request, sym_matrix):
    """``run_lanczos(call, sweeps=0)`` runs *call* on a serial or a 2-rank
    operator and checks that it left no rank or communication thread
    behind and (serially, where the count survives the exception) that
    it got as far as *sweeps* products."""
    before = threading.active_count()

    def run(call, sweeps=0):
        try:
            if request.param == "serial":
                return _serially(sym_matrix, call, sweeps)
            return _on_two_ranks(sym_matrix, call)
        finally:
            assert threading.active_count() == before

    return run


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lanczos_rejects_a_non_finite_start_vector_before_the_first_sweep(run_lanczos, sym_matrix, bad):
    # used to end in "LinAlgError: Eigenvalues did not converge" after a sweep
    v0 = np.ones(sym_matrix.nrows)
    v0[7] = bad
    with pytest.raises(ValueError, match=r"starting vector is not finite \(\|\|v0\|\| = (nan|inf)\)"):
        run_lanczos(lambda op, local: lanczos(op, v0=local(v0)))


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_lanczos_rejects_a_tolerance_that_is_not_nonnegative(run_lanczos, tol):
    # used to run all max_iter steps in silence
    with pytest.raises(ValueError, match="tol must be >= 0"):
        run_lanczos(lambda op, local: lanczos(op, tol=tol))


def test_lanczos_rejects_a_start_vector_of_the_wrong_shape(run_lanczos):
    with pytest.raises(ValueError, match=r"v0 must have shape \(\d+,\), got \(3,\)"):
        run_lanczos(lambda op, local: lanczos(op, v0=np.ones(3)))


def test_lanczos_names_the_iteration_where_beta_stops_being_finite(run_lanczos, sym_matrix):
    class PoisonedAtThree:
        """Forwards to *op*; the third product comes back holding a NaN."""

        def __init__(self, op):
            self.op, self.calls = op, 0
            self.dot, self.norm, self.local_size = op.dot, op.norm, op.local_size

        def matvec(self, x):
            self.calls += 1
            y = self.op.matvec(x)
            if self.calls == 3:
                y[:1] = np.nan  # an empty slice on a rank without rows
            return y

    def call(op, local):
        return lanczos(PoisonedAtThree(op), v0=local(np.ones(sym_matrix.nrows)))

    with pytest.raises(ValueError, match=r"not finite \(beta = nan at iteration 3\)"):
        run_lanczos(call, sweeps=3)


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
        assert counters["reductions"] == DOTS_PER_ITERATION["cg"] * res.iterations + 2
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
