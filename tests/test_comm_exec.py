"""Plan execution on mpilite: one RankExchange, bit-identical across plans."""

import numpy as np
import pytest

from repro.comm import RankExchange, build_comm_plan
from repro.core.halo import build_halo_plan, cached_halo_plan
from repro.core.spmvm import (
    DistributedSpMVM,
    distributed_spmm,
    distributed_spmv,
)
from repro.matrices import random_sparse
from repro.program import PROGRAM_SCHEMES
from repro.sparse import partition_matrix


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
@pytest.mark.parametrize("nranks,ranks_per_node", [(6, 2), (8, 4)])
def test_node_aware_spmv_bit_identical(hmep_tiny, rng, scheme, nranks, ranks_per_node):
    x = rng.standard_normal(hmep_tiny.nrows)
    direct = distributed_spmv(hmep_tiny, x, nranks, scheme=scheme)
    na = distributed_spmv(
        hmep_tiny, x, nranks, scheme=scheme,
        comm_plan="node-aware", ranks_per_node=ranks_per_node,
    )
    assert np.array_equal(direct, na)  # bit-identical, not just close


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
def test_node_aware_spmv_samg_and_random(samg_tiny, rng, scheme):
    for A in (samg_tiny, random_sparse(500, nnzr=9, seed=5)):
        x = rng.standard_normal(A.nrows)
        direct = distributed_spmv(A, x, 6, scheme=scheme)
        na = distributed_spmv(
            A, x, 6, scheme=scheme, comm_plan="node-aware", ranks_per_node=3
        )
        assert np.array_equal(direct, na)


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
@pytest.mark.parametrize("k", [1, 3, 8])
def test_node_aware_block_bit_identical(hmep_tiny, rng, scheme, k):
    X = rng.standard_normal((hmep_tiny.nrows, k))
    direct = distributed_spmm(hmep_tiny, X, 6, scheme=scheme)
    na = distributed_spmm(
        hmep_tiny, X, 6, scheme=scheme, comm_plan="node-aware", ranks_per_node=2
    )
    assert np.array_equal(direct, na)


def test_node_aware_repeated_iterations(hmep_tiny, rng):
    # sweep tags keep successive exchanges ordered through the relays
    x = rng.standard_normal(hmep_tiny.nrows)
    direct = distributed_spmv(hmep_tiny, x, 4, scheme="task_mode", iterations=3)
    na = distributed_spmv(
        hmep_tiny, x, 4, scheme="task_mode", iterations=3,
        comm_plan="node-aware", ranks_per_node=2,
    )
    assert np.array_equal(direct, na)


def _exchange_halos(halo, plans, x):
    """Each rank's landed halo per plan, driving RankExchange directly."""
    from repro.mpilite.world import PerRank, run_spmd

    def rank_fn(comm, rh):
        x_local = x[rh.row_lo:rh.row_hi]
        landed = []
        for plan in plans:
            ex = RankExchange(plan, rh)
            bufs = ex.allocate(x.shape[1:])
            halo_out = np.full((rh.n_halo, *x.shape[1:]), np.nan)
            reqs = ex.post_receives(comm)
            ex.pack(x_local, bufs)
            ex.send(comm, bufs)
            ex.finish(comm, reqs, bufs, halo_out)
            comm.barrier()
            landed.append(halo_out)
        return landed

    return run_spmd(halo.nranks, rank_fn, PerRank(halo.ranks))


@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "k4"])
def test_rank_exchange_lands_identical_halos_for_every_plan(rng, k):
    # None, a direct plan and a node-aware plan are the same exchange on
    # different message data: every rank's halo is x at its halo columns
    A = random_sparse(200, nnzr=5, seed=9)
    halo = cached_halo_plan(A, 4, with_matrices=True)
    rank_node = (0, 0, 1, 1)
    plans = [
        None,
        build_comm_plan(halo, rank_node, "direct"),
        build_comm_plan(halo, rank_node, "node-aware"),
    ]
    x = rng.standard_normal(A.nrows if k is None else (A.nrows, k))
    for rh, landed in zip(halo.ranks, _exchange_halos(halo, plans, x)):
        assert rh.n_halo > 0
        for halo_out in landed:
            assert np.array_equal(halo_out, x[rh.halo_columns])


@pytest.mark.parametrize("comm_plan", ["direct", "node-aware"])
def test_mismatched_widths_end_in_the_descriptive_shape_error(rng, comm_plan):
    # rank 0 multiplies a vector while its peers multiply a block: every
    # landed segment is shape-checked, so nobody broadcasts silently
    # (ranks waiting on a relay of the failed leader time out instead)
    from repro.core.spmvm import lower_comm_plan
    from repro.mpilite.world import PerRank, run_spmd

    A = random_sparse(200, nnzr=5, seed=9)
    halo = cached_halo_plan(A, 4, with_matrices=True)
    cplan = lower_comm_plan(halo, 4, comm_plan, ranks_per_node=2)

    def rank_fn(comm, rh):
        engine = DistributedSpMVM(comm, rh, comm_plan=cplan)
        if comm.rank == 0:
            return engine.multiply(np.ones(rh.n_rows), "no_overlap")
        return engine.multiply_block(np.ones((rh.n_rows, 1)), "no_overlap")

    with pytest.raises(RuntimeError, match=r"halo segment from \d+ has shape .*, expected"):
        run_spmd(4, rank_fn, PerRank(halo.ranks), recv_timeout=1.0)


@pytest.mark.parametrize("rank_node", [(0, 0, 1, 1), (0, 0, 0, 1, 1)], ids=["2+2", "3+2"])
@pytest.mark.parametrize("k", [None, 3], ids=["spmv", "k3"])
def test_phase_methods_replay_the_engines_plan(rng, rank_node, k):
    # the four phase methods in naive_overlap order ARE the engine's one
    # exchange: bit-identical to multiply, and the router carries the
    # node-aware plan's messages, not one per rank pair
    from repro.check import Checker
    from repro.mpilite.world import PerRank, run_spmd

    nranks = len(rank_node)
    A = random_sparse(300, nnzr=8, seed=13)
    halo = build_halo_plan(A, partition_matrix(A, nranks), with_matrices=True)
    cplan = build_comm_plan(halo, rank_node, "node-aware")
    assert cplan.total_messages() != halo.total_messages()
    x = rng.standard_normal(A.nrows if k is None else (A.nrows, k))

    def rank_fn(comm, rh, stepped):
        engine = DistributedSpMVM(comm, rh, comm_plan=cplan)
        x_local = x[rh.row_lo:rh.row_hi].copy()
        if not stepped:
            multiply = engine.multiply if k is None else engine.multiply_block
            return multiply(x_local, "naive_overlap")
        kernel = engine.kernel
        halo_out, send_bufs = engine.sweep_buffers(x_local)
        recvs = engine.post_halo_receives()
        engine.fill_send_buffers(x_local, send_bufs)
        engine.send_buffers(send_bufs)
        y = (kernel.spmv if k is None else kernel.spmm)(engine.A_local_op, x_local)
        engine.complete_halo_receives(recvs, halo_out)
        (kernel.spmv_add if k is None else kernel.spmm_add)(
            engine.A_remote_op, engine.halo_view(halo_out), out=y
        )
        return y

    expect = run_spmd(nranks, rank_fn, PerRank(halo.ranks), False)
    checker = Checker(nranks)
    got = run_spmd(nranks, rank_fn, PerRank(halo.ranks), True, observer=checker)
    for y, ref in zip(got, expect):
        assert np.array_equal(y, ref)
    assert len(checker.sends) == cplan.total_messages()


def test_driver_validates_comm_plan_args(hmep_tiny, rng):
    x = rng.standard_normal(hmep_tiny.nrows)
    with pytest.raises(ValueError, match="comm_plan"):
        distributed_spmv(hmep_tiny, x, 4, comm_plan="bogus")
    with pytest.raises(ValueError, match="ranks_per_node"):
        distributed_spmv(hmep_tiny, x, 4, comm_plan="node-aware", ranks_per_node=0)


def test_exchange_handles_uneven_node_sizes(rng):
    # 5 ranks on 2 nodes (3 + 2): leaders, gathers and scatters with
    # asymmetric group sizes
    A = random_sparse(300, nnzr=8, seed=13)
    x = rng.standard_normal(A.nrows)
    halo = build_halo_plan(A, partition_matrix(A, 5), with_matrices=True)
    rank_node = (0, 0, 0, 1, 1)
    na = build_comm_plan(halo, rank_node, "node-aware")
    na.validate(halo)
    from repro.mpilite.world import PerRank, run_spmd

    def rank_fn(comm, rh):
        eng = DistributedSpMVM(comm, rh, comm_plan=na)
        lo, hi = halo.partition.bounds(comm.rank)
        return eng.multiply(x[lo:hi], "no_overlap")

    pieces = run_spmd(5, rank_fn, PerRank(halo.ranks))
    ref = distributed_spmv(A, x, 5, scheme="no_overlap")
    assert np.array_equal(np.concatenate(pieces), ref)
