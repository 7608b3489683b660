"""Golden cross-backend test: one sweep program, two executions.

The acceptance contract of the sweep IR (DESIGN.md §10): for every
Fig. 4 scheme × {direct, node-aware} comm plan × {spmv, spmm},

* the op sequence the mpilite backend executes equals the op sequence
  the simulation backend executes (both equal the program's frozen
  signature),
* the mpilite results are bit-identical across all combinations and to
  a hand-rolled split-kernel reference (the pre-refactor arithmetic:
  local part first, then the remote part accumulated row by row).
"""

import numpy as np
import pytest

from repro.core import cached_halo_plan, distributed_spmm, distributed_spmv, simulate_from_plan
from repro.core.spmvm import DistributedSpMVM, lower_comm_plan, scatter_vector
from repro.machine import westmere_cluster
from repro.mpilite import PerRank, run_spmd
from repro.program import PROGRAM_SCHEMES, build_sweep
from repro.sparse import spmm, spmm_add, spmv, spmv_add

NRANKS = 4

#: The frozen per-scheme op sequences of a single sweep — editing a
#: builder must be a conscious change here too.
GOLDEN_SIGNATURES = {
    "no_overlap": (
        "POST_RECVS", "PACK", "POST_SENDS", "WAITALL", "FULL_SPMVM",
    ),
    "naive_overlap": (
        "POST_RECVS", "PACK", "POST_SENDS", "LOCAL_SPMVM", "WAITALL",
        "REMOTE_SPMVM",
    ),
    "task_mode": (
        "POST_RECVS", "PACK", "OMP_BARRIER",
        "COMM_THREAD{", "POST_SENDS", "WAITALL", "}",
        "LOCAL_SPMVM", "OMP_BARRIER", "REMOTE_SPMVM",
    ),
}


@pytest.fixture(scope="module")
def golden_matrix(hmep_small):
    return hmep_small


@pytest.fixture(scope="module")
def golden_x(golden_matrix):
    rng = np.random.default_rng(11)
    return rng.standard_normal(golden_matrix.nrows)


@pytest.fixture(scope="module")
def golden_X(golden_matrix):
    rng = np.random.default_rng(12)
    return rng.standard_normal((golden_matrix.nrows, 3))


def split_kernel_reference(A, x, nranks):
    """Hand-rolled split-kernel result: what every scheme must reproduce bit for bit."""
    plan = cached_halo_plan(A, nranks, with_matrices=True)
    pieces = []
    for halo in plan.ranks:
        x_local = np.asarray(x[halo.row_lo:halo.row_hi], dtype=np.float64)
        block = x_local.ndim == 2
        y = spmm(halo.A_local, x_local) if block else spmv(halo.A_local, x_local)
        halo_vals = np.asarray(x[halo.halo_columns], dtype=np.float64)
        if block:
            spmm_add(halo.A_remote, halo_vals, out=y)
        else:
            spmv_add(halo.A_remote, halo_vals, out=y)
        pieces.append(y)
    return np.concatenate(pieces)


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
@pytest.mark.parametrize("plan_kind", ["direct", "node-aware"])
@pytest.mark.parametrize("width", ["spmv", "spmm"])
def test_cross_backend_golden(golden_matrix, golden_x, golden_X, scheme, plan_kind, width):
    A = golden_matrix
    x = golden_x if width == "spmv" else golden_X
    k = 1 if width == "spmv" else x.shape[1]
    signature = GOLDEN_SIGNATURES[scheme]
    program = build_sweep(scheme, block_k=k)
    assert program.signature() == signature

    # --- simulation: the program's op sequence, once per iteration ----
    cluster = westmere_cluster(2)
    sim_plan = cached_halo_plan(A, NRANKS, with_matrices=False)
    op_logs: dict[int, list[str]] = {}
    iterations = 2
    result = simulate_from_plan(
        sim_plan, cluster, mode="per-ld", scheme=scheme,
        eager_threshold=1024, iterations=iterations, block_k=k,
        comm_plan=plan_kind, op_logs=op_logs,
    )
    assert result.iterations == iterations
    assert sorted(op_logs) == list(range(NRANKS))
    for rank_log in op_logs.values():
        assert tuple(rank_log) == signature * iterations

    # --- real execution (mpilite): same op log, per-rank slices -------
    plan = cached_halo_plan(A, NRANKS, with_matrices=True)
    cplan = lower_comm_plan(plan, NRANKS, plan_kind, ranks_per_node=2)

    def rank_fn(comm, halo):
        engine = DistributedSpMVM(comm, halo, comm_plan=cplan)
        x_local = scatter_vector(x, plan.partition, comm.rank)
        log: list[str] = []
        multiply = engine.multiply_block if width == "spmm" else engine.multiply
        return multiply(x_local, scheme, op_log=log), tuple(log)

    out = run_spmd(NRANKS, rank_fn, PerRank(plan.ranks))
    for _y, log in out:
        assert log == signature

    # --- numerics: the split-kernel reference, bit for bit ------------
    ref = split_kernel_reference(A, x, NRANKS)
    assert np.array_equal(np.concatenate([y for y, _log in out]), ref)


def test_all_combinations_bit_identical(golden_matrix, golden_x, golden_X):
    """Scheme and comm-plan choice must never change a single bit."""
    A = golden_matrix
    spmv_results = [
        distributed_spmv(A, golden_x, NRANKS, scheme=scheme,
                         comm_plan=cp, ranks_per_node=2)
        for scheme in PROGRAM_SCHEMES for cp in ("direct", "node-aware")
    ]
    spmm_results = [
        distributed_spmm(A, golden_X, NRANKS, scheme=scheme,
                         comm_plan=cp, ranks_per_node=2)
        for scheme in PROGRAM_SCHEMES for cp in ("direct", "node-aware")
    ]
    for y in spmv_results[1:]:
        assert np.array_equal(y, spmv_results[0])
    for Y in spmm_results[1:]:
        assert np.array_equal(Y, spmm_results[0])
    # spmm columns are bit-identical to the corresponding spmv
    for j in range(golden_X.shape[1]):
        assert np.array_equal(
            spmm_results[0][:, j],
            distributed_spmv(A, golden_X[:, j], NRANKS, scheme="task_mode"),
        )
