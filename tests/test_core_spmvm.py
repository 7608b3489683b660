"""Distributed spMVM executing on mpilite: numerical integration tests."""

import numpy as np
import pytest

from repro.core import DistributedSpMVM, build_halo_plan, distributed_spmv
from repro.core.spmvm import SCHEMES, gather_vector, scatter_vector
from repro.matrices import random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.sparse import partition_matrix, partition_rows_balanced


@pytest.mark.parametrize("scheme", SCHEMES)
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


def test_row_partition_strategy(random_300, rng):
    x = rng.standard_normal(300)
    y = distributed_spmv(random_300, x, 3, strategy="rows")
    assert np.allclose(y, random_300 @ x, atol=1e-11)


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
    ys = [distributed_spmv(random_300, x, 4, scheme=s) for s in SCHEMES]
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

    monkeypatch.setattr(world, "run_spmd", lambda *a, **k: pytest.fail("ranks were spawned"))
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
