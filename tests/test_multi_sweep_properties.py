"""Property tests for N-sweep programs + s-step CG validation.

Hypothesis half: for EVERY (scheme, n_sweeps >= 1, pipeline, block_k)
combination,

* :func:`build_sweep` lints clean (the double-buffer hoisting
  invariants of DESIGN.md §10 hold by construction),
* every sweep performs exactly the frozen single-sweep work-op multiset
  — pipelining may reorder communication and change barrier pacing, but
  never add or drop per-sweep work — and the N = 1 program *is* the
  frozen single-sweep tuple,
* when pipelined, sweep ``s+1``'s POST_RECVS really precedes sweep
  ``s``'s halo-consuming kernel.

s-step CG half: :func:`repro.solvers.sstep_cg` matches classic CG on
SPD systems (serial and SPMD), spends strictly fewer collectives per
iteration (count-asserted on operator counters), and rejects
indefinite operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_halo_plan, scatter_vector
from repro.matrices import poisson_2d
from repro.mpilite import PerRank, run_spmd
from repro.program import WORK_OPS, SweepOp, build_sweep, lint_sweep_program
from repro.solvers import (
    DistributedOperator,
    SerialOperator,
    conjugate_gradient,
    sstep_cg,
)
from repro.sparse import CSRMatrix, partition_matrix
from tests.test_program_golden import GOLDEN_SIGNATURES

SCHEMES = ("no_overlap", "naive_overlap", "task_mode")

_scheme = st.sampled_from(SCHEMES)
_n_sweeps = st.integers(min_value=1, max_value=6)
_block_k = st.integers(min_value=1, max_value=3)
_pipeline = st.booleans()


@settings(max_examples=60, deadline=None)
@given(scheme=_scheme, n_sweeps=_n_sweeps, pipeline=_pipeline, block_k=_block_k)
def test_build_multi_sweep_lints_clean(scheme, n_sweeps, pipeline, block_k):
    program = build_sweep(scheme, n_sweeps, pipeline=pipeline, block_k=block_k)
    assert lint_sweep_program(program) == []


@settings(max_examples=60, deadline=None)
@given(scheme=_scheme, n_sweeps=_n_sweeps, pipeline=_pipeline, block_k=_block_k)
def test_every_sweep_does_single_sweep_work(scheme, n_sweeps, pipeline, block_k):
    program = build_sweep(scheme, n_sweeps, pipeline=pipeline, block_k=block_k)
    single = tuple(sorted(t for t in GOLDEN_SIGNATURES[scheme] if t in WORK_OPS))
    for s in range(n_sweeps):
        assert program.sweep_work_ops(s) == single
    # no ops tagged outside the sweep range
    assert all(0 <= op.sweep < n_sweeps for op, _inside in program.walk())
    if n_sweeps == 1:
        assert program.signature() == GOLDEN_SIGNATURES[scheme]


@settings(max_examples=40, deadline=None)
@given(scheme=_scheme, n_sweeps=st.integers(min_value=2, max_value=6),
       block_k=_block_k)
def test_pipelined_recvs_hoisted_across_sweeps(scheme, n_sweeps, block_k):
    sig = build_sweep(scheme, n_sweeps, pipeline=True, block_k=block_k).signature()
    tail = "FULL_SPMVM" if scheme == "no_overlap" else "REMOTE_SPMVM"
    for s in range(n_sweeps - 1):
        hoisted = SweepOp("POST_RECVS", sweep=s + 1).token
        assert sig.index(hoisted) < sig.index(SweepOp(tail, sweep=s).token)


# ----------------------------------------------------------------------
# s-step CG
# ----------------------------------------------------------------------
def test_sstep_cg_solves_poisson(rng):
    A = poisson_2d(15)
    x_true = rng.standard_normal(A.nrows)
    b = A @ x_true
    res = sstep_cg(SerialOperator(A), b, tol=1e-10, max_iter=2000)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)
    assert res.residual_history[-1] <= 1e-10
    # the recurrence residual drifts slightly from the true residual
    # (the classic s-step trade-off) — but stays well within a few
    # orders of the target
    assert res.residual_norm <= 1e-8


def test_sstep_cg_matches_classic_cg(rng):
    A = poisson_2d(12)
    b = rng.standard_normal(A.nrows)
    op = SerialOperator(A)
    classic = conjugate_gradient(op, b, tol=1e-9, max_iter=2000)
    sstep = sstep_cg(op, b, tol=1e-9, max_iter=2000)
    assert classic.converged and sstep.converged
    assert np.allclose(sstep.x, classic.x, atol=1e-7)
    # same Krylov space per outer step: iteration counts agree to the
    # 2-iteration granularity of the fused convergence check
    assert abs(sstep.iterations - classic.iterations) <= 2


def test_sstep_cg_zero_rhs():
    A = poisson_2d(5)
    res = sstep_cg(SerialOperator(A), np.zeros(A.nrows))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0)


def test_sstep_cg_rejects_indefinite_operator(rng):
    d = np.diag(np.concatenate([np.ones(5), -np.ones(5)]))
    A = CSRMatrix.from_dense(d)
    b = rng.standard_normal(10)
    with pytest.raises(ValueError, match="not positive definite"):
        sstep_cg(SerialOperator(A), b, max_iter=50)


@pytest.mark.parametrize("pipeline", [True, False])
def test_distributed_sstep_cg_matches_serial(rng, pipeline):
    A = poisson_2d(13)
    b = rng.standard_normal(A.nrows)
    serial = sstep_cg(SerialOperator(A), b, tol=1e-9, max_iter=2000)
    partition = partition_matrix(A, 4)
    plan = build_halo_plan(A, partition, with_matrices=True)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo)
        res = sstep_cg(op, scatter_vector(b, partition, comm.rank),
                       tol=1e-9, max_iter=2000, pipeline=pipeline)
        return res.x, res.iterations, res.converged

    out = run_spmd(4, fn, PerRank(plan.ranks))
    assert all(converged for _x, _it, converged in out)
    x = np.concatenate([x for x, _it, _conv in out])
    assert np.allclose(x, serial.x, atol=1e-7)
    assert all(it == serial.iterations for _x, it, _conv in out)


def test_sstep_cg_fewer_collectives_than_classic(rng):
    """The communication-avoiding claim, count-asserted on counters."""
    A = poisson_2d(13)
    b = rng.standard_normal(A.nrows)
    partition = partition_matrix(A, 2)
    plan = build_halo_plan(A, partition, with_matrices=True)

    def fn(comm, halo):
        b_local = scatter_vector(b, partition, comm.rank)
        classic_op = DistributedOperator(comm, halo)
        classic = conjugate_gradient(classic_op, b_local, tol=1e-8, max_iter=3000)
        sstep_op = DistributedOperator(comm, halo)
        sstep = sstep_cg(sstep_op, b_local, tol=1e-8, max_iter=3000)
        assert classic.converged and sstep.converged
        return (classic.iterations, dict(classic_op.counters),
                sstep.iterations, dict(sstep_op.counters))

    for classic_it, classic_ct, sstep_it, sstep_ct in run_spmd(2, fn, PerRank(plan.ranks)):
        classic_red = classic_ct["reductions"] / classic_it
        sstep_red = sstep_ct["reductions"] / sstep_it
        assert sstep_red < classic_red
        # total posted messages per iteration drop too: the fused
        # allreduce amortises the collective traffic
        assert (sstep_ct["messages"] / sstep_it
                < classic_ct["messages"] / classic_it)
