"""Distributed spMVM executing on mpilite: numerical integration tests."""

import warnings

import numpy as np
import pytest

from repro.core import (
    DistributedSpMVM,
    build_halo_plan,
    cached_halo_plan,
    distributed_spmm,
    distributed_spmv,
)
from repro.core.spmvm import gather_vector, scatter_vector
from repro.matrices import random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.program import PROGRAM_SCHEMES
from repro.serve import SolverService, build_model
from repro.solvers import SerialOperator, conjugate_gradient, lanczos
from repro.sparse import (
    SymmetricCSR,
    partition_matrix,
    partition_rows_balanced,
    spmm,
    spmv,
    spmv_symmetric,
)


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
@pytest.mark.parametrize("nranks", [1, 2, 5])
def test_distributed_matches_serial(random_300, rng, scheme, nranks):
    x = rng.standard_normal(300)
    y = distributed_spmv(random_300, x, nranks, scheme=scheme)
    assert np.allclose(y, random_300 @ x, atol=1e-11)


def test_distributed_on_hamiltonian(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    y = distributed_spmv(hmep_tiny, x, 6, scheme="task_mode")
    assert np.allclose(y, hmep_tiny @ x, atol=1e-11)


def test_distributed_on_samg(samg_tiny, rng):
    x = rng.standard_normal(samg_tiny.nrows)
    y = distributed_spmv(samg_tiny, x, 4, scheme="naive_overlap")
    assert np.allclose(y, samg_tiny @ x, atol=1e-11)


def test_repeated_multiplications(random_300, rng):
    # communication plan must be reusable across iterations
    x = rng.standard_normal(300)
    y = distributed_spmv(random_300, x, 4, scheme="task_mode", iterations=3)
    assert np.allclose(y, random_300 @ x, atol=1e-11)


def test_engine_iteration_counter(random_300, rng):
    partition = partition_matrix(random_300, 2)
    plan = build_halo_plan(random_300, partition, with_matrices=True)
    x = rng.standard_normal(300)

    def fn(comm, halo):
        eng = DistributedSpMVM(comm, halo)
        xl = scatter_vector(x, partition, comm.rank)
        for _ in range(4):
            y = eng.multiply(xl, "no_overlap")
            comm.barrier()
        assert eng.iterations == 4
        return y

    pieces = run_spmd(2, fn, PerRank(plan.ranks))
    assert np.allclose(gather_vector(pieces), random_300 @ x, atol=1e-11)


def test_all_schemes_identical_results(random_300, rng):
    # floating-point summation order is fixed (local part, then remote),
    # so all three schemes agree bitwise
    x = rng.standard_normal(300)
    ys = [distributed_spmv(random_300, x, 4, scheme=s) for s in PROGRAM_SCHEMES]
    assert np.array_equal(ys[0], ys[1])
    assert np.array_equal(ys[0], ys[2])


def test_engine_validates_inputs(random_300):
    partition = partition_matrix(random_300, 2)
    plan_meta = build_halo_plan(random_300, partition, with_matrices=False)

    def fn(comm, halo):
        with pytest.raises(ValueError, match="with_matrices"):
            DistributedSpMVM(comm, halo)
        return True

    assert all(run_spmd(2, fn, PerRank(plan_meta.ranks)))


def test_engine_rejects_wrong_vector_length(random_300):
    partition = partition_matrix(random_300, 2)
    plan = build_halo_plan(random_300, partition, with_matrices=True)

    def fn(comm, halo):
        eng = DistributedSpMVM(comm, halo)
        with pytest.raises(ValueError, match="shape"):
            eng.multiply(np.zeros(7), "no_overlap")
        comm.barrier()
        return True

    assert all(run_spmd(2, fn, PerRank(plan.ranks)))


@pytest.mark.parametrize(
    "block,shape,iterations,match",
    [
        (False, (305,), 1, r"shape \(300,\) for a matrix of shape \(300, 300\), got .*\(305,\)$"),
        (False, (297,), 1, r"shape \(300,\) .* got shape \(297,\)$"),
        (False, (300, 2), 1, r"1-D array .* got shape \(300, 2\)"),
        (True, (304, 3), 1, r"shape \(300, k\) .* got shape \(304, 3\)"),
        (False, (300,), 0, r"iterations must be positive, got 0"),
        (True, (300, 3), 0, r"iterations must be positive, got 0"),
        (False, (300,), 2.5, r"iterations must be an integer, got float"),
    ],
    ids=[
        "long", "short", "block-to-spmv", "long-block", "no-iterations",
        "no-block-iterations", "fractional-iterations",
    ],
)
def test_driver_validates_before_it_spawns(
    random_300, monkeypatch, block, shape, iterations, match
):
    # scatter_vector slices: a long x used to lose its tail silently, a
    # short one reached the ranks (where one of them failed),
    # iterations=0 ran one multiply and iterations=2.5 died inside a rank
    import threading

    import repro.mpilite.world as world
    from repro.core import distributed_spmm

    monkeypatch.setattr(
        world.World, "start_ranks", lambda *a, **k: pytest.fail("ranks were started")
    )
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: pytest.fail(f"thread {self.name} was started")
    )
    driver = distributed_spmm if block else distributed_spmv
    with pytest.raises((ValueError, TypeError), match=match):
        driver(random_300, np.ones(shape), 2, iterations=iterations)


def test_scatter_gather_roundtrip(rng):
    x = rng.standard_normal(50)
    p = partition_rows_balanced(50, 3)
    pieces = [scatter_vector(x, p, r) for r in range(3)]
    assert np.allclose(gather_vector(pieces), x)


def _engine_call(block):
    def call(A, x):
        plan = cached_halo_plan(A, 2, with_matrices=True)

        def fn(comm, halo):
            lo, hi = plan.partition.bounds(comm.rank)
            with DistributedSpMVM(comm, halo) as eng:
                return (eng.multiply_block if block else eng.multiply)(x[lo:hi])

        try:
            run_spmd(2, fn, PerRank(plan.ranks))
        except RuntimeError as exc:  # "rank r failed: ..." from the rank's error
            raise exc.__cause__ from None

    return call


def _service_call(method):
    def call(A, x):
        with SolverService(build_model(A, 2)) as svc:
            getattr(svc, method)(x)

    return call


#: every entry point that takes a right-hand side, a starting vector or
#: an initial guess: (takes a block, call)
RHS_ENTRY_POINTS = {
    "spmv": (False, spmv),
    "spmm": (True, spmm),
    "spmv_symmetric": (
        False, lambda A, x: spmv_symmetric(SymmetricCSR.from_csr(A, check=False), x)
    ),
    "scatter_vector": (
        True, lambda A, x: scatter_vector(x, partition_rows_balanced(A.nrows, 2), 0)
    ),
    "DistributedSpMVM.multiply": (False, _engine_call(False)),
    "DistributedSpMVM.multiply_block": (True, _engine_call(True)),
    "distributed_spmv": (False, lambda A, x: distributed_spmv(A, x, 2)),
    "distributed_spmm": (True, lambda A, x: distributed_spmm(A, x, 2)),
    "SolverService.submit": (True, _service_call("submit")),
    "SolverService.solve": (False, _service_call("solve")),
    "lanczos.v0": (False, lambda A, x: lanczos(SerialOperator(A), v0=x)),
    "conjugate_gradient.b": (False, lambda A, x: conjugate_gradient(SerialOperator(A), x)),
    "conjugate_gradient.x0": (
        False, lambda A, x: conjugate_gradient(SerialOperator(A), np.ones(A.nrows), x0=x)
    ),
}


@pytest.mark.parametrize("entry", sorted(RHS_ENTRY_POINTS))
def test_complex_right_hand_side_is_refused_not_cast(random_300, entry):
    # a float64 cast keeps the real part only: A times it is a wrong
    # vector that nothing but a ComplexWarning would report
    block, call = RHS_ENTRY_POINTS[entry]
    x = np.full((300, 2) if block else 300, 1.0 + 2.0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be real"):
            call(random_300, x)


# ----------------------------------------------------------------------
# the one-shot drivers check a cached plan beside the sweep
# ----------------------------------------------------------------------
def _warm(A, x, nranks=2):
    """Call once so the next call hits the plan cache; return the plan."""
    from repro.core.halo import lookup_halo_plan

    distributed_spmv(A, x, nranks)
    return lookup_halo_plan(A, nranks).plan


def test_a_stale_hit_whose_run_raises_reruns(monkeypatch):
    # the early run on the stale plan fails on one rank: its error is
    # discarded with its product, and the rerun on the rebuilt plan answers
    A = random_sparse(120, nnzr=5, seed=41)
    x = np.arange(120, dtype=float)
    stale = _warm(A, x)
    real = DistributedSpMVM.multiply

    def multiply(self, x_local, scheme="task_mode", **kw):
        if self.halo is stale.ranks[1]:
            raise RuntimeError("the stale run failed")
        return real(self, x_local, scheme, **kw)

    monkeypatch.setattr(DistributedSpMVM, "multiply", multiply)
    A.val *= 3.0
    np.testing.assert_array_equal(distributed_spmv(A, x, 2), distributed_spmv(A.copy(), x, 2))
    np.testing.assert_allclose(distributed_spmv(A, x, 2), spmv(A, x), rtol=1e-12)


def test_a_fresh_hits_rank_error_names_the_rank(monkeypatch):
    A = random_sparse(120, nnzr=5, seed=42)
    x = np.arange(120, dtype=float)
    _warm(A, x)
    real = DistributedSpMVM.multiply

    def multiply(self, x_local, scheme="task_mode", **kw):
        if self.comm.rank == 1:
            raise ValueError("rank-side failure")
        return real(self, x_local, scheme, **kw)

    monkeypatch.setattr(DistributedSpMVM, "multiply", multiply)
    with pytest.raises(RuntimeError, match=r"rank 1 failed: ValueError\('rank-side failure'\)"):
        distributed_spmv(A, x, 2)


@pytest.mark.parametrize("block", [False, True], ids=["spmv", "spmm"])
def test_an_observed_call_on_a_stale_hit_reports_clean(block):
    from repro.check import Checker

    A = random_sparse(120, nnzr=5, seed=43)
    x = np.arange(120, dtype=float)
    if block:
        x = np.stack([x, 1.0 - x], axis=1)
    call = distributed_spmm if block else distributed_spmv
    before = call(A, x, 2)
    A.val *= 2.0
    checker = Checker(2)
    got = call(A, x, 2, observer=checker)
    report = checker.finalize()
    assert report.ok and report.events_observed, [f.describe() for f in report.findings]
    np.testing.assert_array_equal(got, 2.0 * before)


def test_the_witness_runs_beside_the_sweep(monkeypatch):
    # no clock: the witness waits for a rank to have multiplied.  Were
    # the ranks started only after the witness, the wait would time out
    import threading

    import repro.core.spmvm as spmvm_mod

    A = random_sparse(120, nnzr=5, seed=44)
    x = np.arange(120, dtype=float)
    _warm(A, x)
    swept = threading.Event()
    seen = []
    real_multiply, real_witness = DistributedSpMVM.multiply, spmvm_mod.plan_witness

    def multiply(self, *args, **kw):
        y = real_multiply(self, *args, **kw)
        swept.set()
        return y

    def witness(B, **kw):
        seen.append(swept.wait(timeout=10.0))
        return real_witness(B, **kw)

    monkeypatch.setattr(DistributedSpMVM, "multiply", multiply)
    monkeypatch.setattr(spmvm_mod, "plan_witness", witness)
    np.testing.assert_array_equal(distributed_spmv(A, x, 2), distributed_spmv(A.copy(), x, 2))
    assert seen == [True]  # one witness, taken while the ranks swept


def _variants(x):
    """*x* as the layouts a caller may hand in, each with its values."""
    ro = x.copy()
    ro.flags.writeable = False
    wide = np.zeros((x.shape[0] * 2, *x.shape[1:]))
    wide[::2] = x
    return {
        "c-order": x.copy(),
        "read-only": ro,
        "f-order": np.asfortranarray(x),
        "strided": wide[::2],
        "float32": x.astype(np.float32),
    }


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("layout", ["c-order", "read-only", "f-order", "strided", "float32"])
@pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
def test_driver_inputs_are_read_where_they_lie_and_never_written(k, layout, warm, monkeypatch):
    # a float64, C-contiguous, writeable x is swept where it lies; every
    # other layout is copied first; the bits are the same either way
    rng = np.random.default_rng(45)
    A = random_sparse(150, nnzr=6, seed=45)
    base = rng.standard_normal(150 if k == 1 else (150, k)).astype(np.float32).astype(float)
    x = _variants(base)[layout]
    kept = x.copy()
    call = distributed_spmv if k == 1 else distributed_spmm
    ref = call(A.copy(), np.ascontiguousarray(base), 2)
    if warm:
        call(A, base.copy(), 2)
    shared = []
    real = {"multiply": DistributedSpMVM.multiply, "multiply_block": DistributedSpMVM.multiply_block}

    def spy(name):
        def method(self, x_local, *args, **kw):
            shared.append(np.shares_memory(x_local, x))
            return real[name](self, x_local, *args, **kw)

        return method

    for name in real:
        monkeypatch.setattr(DistributedSpMVM, name, spy(name))
    got = call(A, x, 2)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(x, kept)
    assert x.dtype == kept.dtype
    in_place = layout == "c-order" or (layout == "f-order" and k == 1)  # 1-D: both orders
    assert shared == [in_place] * 2
