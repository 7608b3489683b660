"""Property tests for N-sweep programs, and who runs them.

Hypothesis half: for EVERY (scheme, n_sweeps >= 1, pipeline, block_k)
combination,

* :func:`build_sweep` lints clean (the hoisting invariants of
  DESIGN.md §10 hold by construction),
* every sweep performs exactly the frozen single-sweep work-op multiset
  — pipelining may reorder communication and change barrier pacing, but
  never add or drop per-sweep work — and the N = 1 program *is* the
  frozen single-sweep tuple,
* when pipelined, sweep ``s+1``'s POST_RECVS really precedes sweep
  ``s``'s halo-consuming kernel.

Backend half: the real backend refuses every ``n_sweeps > 1`` program
before it touches the engine, and the simulator — the one interpreter of
those programs — shows the effect that keeps their builders: pipelining
is worth exactly nothing in the vector modes and a constant per sweep in
task mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_halo_plan, simulate_from_plan
from repro.machine import westmere_cluster
from repro.program import WORK_OPS, SweepOp, build_sweep, execute_sweep, lint_sweep_program
from repro.sparse import partition_matrix
from tests.test_program_comm_thread import single_rank_engine
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
# who runs them: the simulator does, the real backend refuses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pipeline", [True, False], ids=["pipelined", "sequential"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_real_backend_refuses_multi_sweep_programs(hmep_tiny, scheme, pipeline):
    # refused before the engine is touched: no buffer, no request, no thread
    engine = single_rank_engine(hmep_tiny)
    x = np.ones(hmep_tiny.nrows)
    with pytest.raises(ValueError, match=r"x2 .*single-sweep programs.*simulator"):
        execute_sweep(engine, build_sweep(scheme, 2, pipeline=pipeline), x)
    assert engine._buffers == {} and engine.comm_thread is None
    assert np.array_equal(engine.multiply(x, scheme), engine.multiply(x, "no_overlap"))
    engine.close()


def test_simulated_pipelining_pays_only_in_task_mode(hmep_tiny):
    # the finding that keeps the multi-sweep builders (EXPERIMENTS.md, "The
    # chain's verdict"): hoisted receives buy the vector modes nothing; one
    # long-lived comm thread saves task mode a constant per sweep, which
    # shows once a sweep is short (HMeP-tiny on 4 nodes: a few microseconds)
    plan = build_halo_plan(hmep_tiny, partition_matrix(hmep_tiny, 8), with_matrices=False)
    ratio = {}
    for scheme in SCHEMES:
        pipe, seq = (
            simulate_from_plan(
                plan, westmere_cluster(4), mode="per-ld", scheme=scheme,
                n_sweeps=3, pipeline=pipeline,
            ).total_seconds
            for pipeline in (True, False)
        )
        ratio[scheme] = pipe / seq
    assert ratio["no_overlap"] == 1.0 and ratio["naive_overlap"] == 1.0
    assert ratio["task_mode"] <= 0.9
