"""Batched multi-RHS distributed spMVM: numerics, message counts, plan cache."""

import numpy as np
import pytest

from repro.core import (
    DistributedSpMVM,
    build_halo_plan,
    cached_halo_plan,
    distributed_spmm,
    distributed_spmv,
)
from repro.core.spmvm import SCHEMES, gather_vector, scatter_vector
from repro.matrices import random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.sparse import partition_matrix


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("nranks", [1, 2, 5])
def test_distributed_block_matches_serial(random_300, rng, scheme, nranks):
    X = rng.standard_normal((300, 4))
    Y = distributed_spmm(random_300, X, nranks, scheme=scheme)
    assert Y.shape == (300, 4)
    assert np.allclose(Y, random_300.to_dense() @ X, atol=1e-11)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_block_columns_bit_identical_to_single_vector(random_300, rng, k):
    X = rng.standard_normal((300, k))
    Y = distributed_spmm(random_300, X, 4, scheme="no_overlap")
    for j in range(k):
        y = distributed_spmv(random_300, X[:, j], 4, scheme="no_overlap")
        assert np.array_equal(Y[:, j], y)


def test_all_schemes_agree_with_sequential_block_product(random_300, rng):
    X = rng.standard_normal((300, 5))
    ref = random_300.to_dense() @ X
    results = [distributed_spmm(random_300, X, 4, scheme=s) for s in SCHEMES]
    for Y in results:
        assert np.allclose(Y, ref, atol=1e-11)
    # fp summation order is fixed (local part then remote), so bitwise equal
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def test_block_on_hamiltonian(hmep_tiny, rng):
    X = rng.standard_normal((hmep_tiny.nrows, 3))
    Y = distributed_spmm(hmep_tiny, X, 6, scheme="task_mode")
    assert np.allclose(Y, hmep_tiny.to_dense() @ X, atol=1e-11)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_sends_one_message_per_peer_per_batch(random_300, rng, scheme):
    # the whole point of batching: k columns ride in ONE message per peer
    partition = partition_matrix(random_300, 4)
    plan = build_halo_plan(random_300, partition, with_matrices=True)
    expected = plan.total_messages()
    assert expected > 0
    X = rng.standard_normal((300, 8))

    def fn(comm, halo):
        # the router counter is global, so bracket every read with
        # barriers: between two barriers no rank is sending
        eng = DistributedSpMVM(comm, halo)
        X_local = scatter_vector(X, partition, comm.rank)
        comm.barrier()
        base = comm._router.stats["messages"]
        comm.barrier()
        Y = eng.multiply_block(X_local, scheme)
        comm.barrier()
        batched = comm._router.stats["messages"] - base
        comm.barrier()
        eng.multiply(X_local[:, 0], scheme)
        comm.barrier()
        single = comm._router.stats["messages"] - base - batched
        return Y, batched, single

    out = run_spmd(4, fn, PerRank(plan.ranks))
    pieces, batched_counts, single_counts = zip(*out)
    # every rank observed the same global totals (measured between barriers)
    assert set(batched_counts) == {expected}
    # the batch moved exactly as many messages as ONE single-vector MVM,
    # i.e. one per peer pair — not k of them
    assert set(single_counts) == {expected}
    assert np.allclose(
        gather_vector(list(pieces)), random_300.to_dense() @ X, atol=1e-11
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_multiply_block_into_callers_buffer(random_300, rng, scheme):
    # out= is where the kernels write: the same bits, and no array per call
    partition = partition_matrix(random_300, 3)
    plan = build_halo_plan(random_300, partition, with_matrices=True)
    X = rng.standard_normal((300, 4))

    def fn(comm, halo):
        eng = DistributedSpMVM(comm, halo)
        X_local = scatter_vector(X, partition, comm.rank)
        fresh = eng.multiply_block(X_local, scheme)
        out = np.full_like(fresh, np.nan)
        for _ in range(2):  # the buffer is reusable
            assert eng.multiply_block(X_local, scheme, out=out) is out
            assert np.array_equal(out, fresh)
        return True

    assert all(run_spmd(3, fn, PerRank(plan.ranks)))


def test_multiply_block_rejects_bad_shapes(random_300):
    plan = cached_halo_plan(random_300, 2)

    def fn(comm, halo):
        eng = DistributedSpMVM(comm, halo)
        with pytest.raises(ValueError, match="X_local"):
            eng.multiply_block(np.zeros((7, 2)), "no_overlap")
        with pytest.raises(ValueError, match="X_local"):
            eng.multiply_block(np.zeros(halo.n_rows), "no_overlap")
        comm.barrier()
        return True

    assert all(run_spmd(2, fn, PerRank(plan.ranks)))


def test_distributed_spmm_repeated_iterations(random_300, rng):
    X = rng.standard_normal((300, 4))
    Y = distributed_spmm(random_300, X, 3, scheme="task_mode", iterations=3)
    assert np.allclose(Y, random_300.to_dense() @ X, atol=1e-11)


def test_distributed_spmm_rejects_vector(random_300, rng):
    with pytest.raises(ValueError, match="2-D"):
        distributed_spmm(random_300, rng.standard_normal(300), 2)


# ----------------------------------------------------------------------
# halo plan cache
# ----------------------------------------------------------------------
def test_cached_halo_plan_reuses_plan(random_300):
    p1 = cached_halo_plan(random_300, 4)
    p2 = cached_halo_plan(random_300, 4)
    assert p1 is p2
    # different partition parameters are distinct entries
    assert cached_halo_plan(random_300, 5) is not p1
    assert cached_halo_plan(random_300, 4, with_matrices=False) is not p1


def test_cached_halo_plan_distinguishes_matrices():
    A = random_sparse(100, nnzr=4, seed=1)
    B = random_sparse(100, nnzr=4, seed=2)
    pa = cached_halo_plan(A, 3)
    pb = cached_halo_plan(B, 3)
    assert pa is not pb
    assert pa.nnz == A.nnz and pb.nnz == B.nnz


def test_cached_halo_plan_survives_id_reuse():
    # a dead matrix's id may be recycled; the weak reference must miss
    import gc

    A = random_sparse(50, nnzr=3, seed=7)
    plan_a = cached_halo_plan(A, 2)
    del A
    gc.collect()
    B = random_sparse(60, nnzr=3, seed=8)
    plan_b = cached_halo_plan(B, 2)
    assert plan_b is not plan_a
    assert plan_b.nrows == 60


def test_cached_plan_matches_fresh_build(random_300):
    cached = cached_halo_plan(random_300, 4)
    fresh = build_halo_plan(random_300, partition_matrix(random_300, 4), with_matrices=True)
    assert cached.total_messages() == fresh.total_messages()
    assert cached.total_comm_bytes() == fresh.total_comm_bytes()
