"""Process-backed mpilite: the same SPMD programs on real OS processes."""

import numpy as np
import pytest

from repro.core import build_halo_plan
from repro.core.spmvm import DistributedSpMVM, scatter_vector
from repro.matrices import random_sparse
from repro.mpilite import PerRank, run_spmd, run_spmd_processes
from repro.sparse import partition_matrix


# target functions must be module-level (picklable)
def _rank_id(comm):
    return comm.rank * 10


# they speak only what repro.mpilite.comm.Comm offers, so the same
# functions run on either backend
def _ring(comm, size):
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    comm.send(comm.rank, right)
    return comm.recv(left)


def _collectives(comm):
    total = comm.allreduce(comm.rank + 1)
    comm.barrier()
    top = comm.allreduce(comm.rank, op=max)
    return (total, top)


def _tagged(comm):
    peer = 1 - comm.rank
    comm.send("a", peer, tag=1)
    comm.send("b", peer, tag=2)
    # receive out of order: tag 2 first
    second = comm.recv(peer, tag=2)
    first = comm.recv(peer, tag=1)
    return (first, second)


def _spmv_rank(comm, halo, x_local):
    engine = DistributedSpMVM(comm, halo)
    return engine.multiply(x_local, "naive_overlap")


def _failing(comm):
    if comm.rank == 1:
        raise ValueError("deliberate")
    return comm.rank


def test_results_collected():
    assert run_spmd_processes(3, _rank_id) == [0, 10, 20]


def test_ring_exchange():
    assert run_spmd_processes(4, _ring, 4) == [3, 0, 1, 2]


def test_collectives():
    assert run_spmd_processes(3, _collectives) == [(6, 2)] * 3


def test_out_of_order_tags():
    assert run_spmd_processes(2, _tagged) == [("a", "b"), ("a", "b")]


def test_the_same_functions_run_on_threads():
    # a function above that called what Comm lacks would fail here
    assert run_spmd(4, _ring, 4) == [3, 0, 1, 2]
    assert run_spmd(3, _collectives) == [(6, 2)] * 3
    assert run_spmd(2, _tagged) == [("a", "b"), ("a", "b")]


def test_error_propagates():
    with pytest.raises(RuntimeError, match="rank 1"):
        run_spmd_processes(2, _failing)


def test_distributed_spmv_on_processes():
    A = random_sparse(400, nnzr=7, seed=9)
    x = np.random.default_rng(2).standard_normal(400)
    partition = partition_matrix(A, 3)
    plan = build_halo_plan(A, partition, with_matrices=True)
    x_parts = [scatter_vector(x, partition, r) for r in range(3)]
    pieces = run_spmd_processes(3, _spmv_rank, PerRank(plan.ranks), PerRank(x_parts))
    y = np.concatenate(pieces)
    assert np.allclose(y, A @ x, atol=1e-11)
