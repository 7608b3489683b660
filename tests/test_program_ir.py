"""Sweep IR: op/program validation, builders, and the program lint."""


import pytest

from repro.core.schemes import SIM_SCHEMES
from repro.core.spmvm import SCHEMES
from repro.program import (
    PROGRAM_SCHEMES,
    SweepOp,
    SweepProgram,
    all_sweep_programs,
    build_sweep,
    lint_sweep_program,
    lint_sweep_programs,
)


def _prog(ops, scheme="naive_overlap", **kw):
    return SweepProgram(scheme=scheme, ops=tuple(ops), **kw)


# ----------------------------------------------------------------------
# IR validation
# ----------------------------------------------------------------------
def test_unknown_op_kind_rejected():
    with pytest.raises(ValueError, match="op kind"):
        SweepOp("FACTORIZE")


def test_comm_thread_needs_body():
    with pytest.raises(ValueError, match="non-empty body"):
        SweepOp("COMM_THREAD")


def test_comm_thread_cannot_nest():
    inner = SweepOp("COMM_THREAD", body=(SweepOp("WAITALL"),))
    with pytest.raises(ValueError, match="nest"):
        SweepOp("COMM_THREAD", body=(inner,))


def test_plain_op_cannot_carry_body():
    with pytest.raises(ValueError, match="cannot carry a body"):
        SweepOp("PACK", body=(SweepOp("WAITALL"),))


def test_program_validates_width_and_counts():
    with pytest.raises(TypeError, match="lowering"):
        _prog([SweepOp("PACK")], lowering="plan")  # the axis is gone, not defaulted
    with pytest.raises(ValueError, match="block_k"):
        _prog([SweepOp("PACK")], block_k=0)
    with pytest.raises(ValueError, match="at least one op"):
        _prog([])
    with pytest.raises(ValueError, match="n_sweeps"):
        _prog([SweepOp("PACK")], n_sweeps=0)
    with pytest.raises(TypeError, match="halo_depth"):
        _prog([SweepOp("PACK")], halo_depth=2)  # the ring went with the real-backend chain


def test_token_elides_the_sweep_zero_tag():
    # the one token rule: bare KIND in sweep 0 (so single-sweep
    # signatures stay byte-stable), s{n}:KIND afterwards
    assert SweepOp("PACK").token == "PACK"
    assert SweepOp("PACK", sweep=2).token == "s2:PACK"
    region = SweepOp("COMM_THREAD", body=(SweepOp("WAITALL"), SweepOp("POST_RECVS", sweep=1)))
    assert region.tokens() == ("COMM_THREAD{", "WAITALL", "s1:POST_RECVS", "}")


def test_walk_and_signature_delimit_comm_thread():
    prog = build_sweep("task_mode")
    kinds = [(op.kind, inside) for op, inside in prog.walk()]
    assert ("POST_SENDS", True) in kinds and ("WAITALL", True) in kinds
    assert kinds[0] == ("POST_RECVS", False)
    sig = prog.signature()
    assert sig.index("COMM_THREAD{") < sig.index("POST_SENDS") < sig.index("}")
    assert "task_mode" in prog.describe()


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def test_scheme_tuples_agree_with_builders():
    # the builders own the tuple; the backend-facing names only bind it
    assert SCHEMES is PROGRAM_SCHEMES and SIM_SCHEMES is PROGRAM_SCHEMES


def test_all_builder_outputs_lint_clean():
    programs = all_sweep_programs()
    # schemes x (N=1 | N in {2, 3} x {pipelined, sequential}) x widths
    assert len(programs) == len(PROGRAM_SCHEMES) * (1 + 2 * 2) * 2 == 30
    assert {p.n_sweeps for p in programs} == {1, 2, 3}
    assert lint_sweep_programs(programs) == []
    assert lint_sweep_programs() == []


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
def test_pipeline_is_canonical_for_a_single_sweep(scheme):
    # a single sweep has no boundary to pipeline across: both spellings
    # are one program, one cache slot, one program_id
    from repro.program import cached_sweep_program

    piped = build_sweep(scheme, 1, pipeline=True)
    plain = build_sweep(scheme, 1, pipeline=False)
    assert piped == plain == build_sweep(scheme)
    assert piped.program_id() == plain.program_id()
    # the real backend's compile-once program is that single sweep, and
    # takes nothing but the scheme (chains are the simulator's)
    assert cached_sweep_program(scheme) is cached_sweep_program(scheme) == plain
    with pytest.raises(TypeError):
        cached_sweep_program(scheme, 1, pipeline=True)


def test_builder_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        build_sweep("eager_overlap")


# ----------------------------------------------------------------------
# lint: each invariant violation is caught
# ----------------------------------------------------------------------
def _messages(program):
    findings = lint_sweep_program(program)
    assert all(f.kind == "program-lint" for f in findings)
    return " | ".join(f.message for f in findings)


def test_lint_catches_compute_in_comm_thread():
    prog = _prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(
            SweepOp("POST_SENDS"), SweepOp("LOCAL_SPMVM"), SweepOp("WAITALL"))),
        SweepOp("FULL_SPMVM"), SweepOp("OMP_BARRIER"),
    ])
    assert "comm thread executes LOCAL_SPMVM" in _messages(prog)


def test_lint_catches_request_lifecycle_violations():
    # sends before receives
    assert "s0:POST_SENDS is not ordered after s0:POST_RECVS" in _messages(_prog([
        SweepOp("POST_SENDS"), SweepOp("POST_RECVS"), SweepOp("PACK"),
        SweepOp("WAITALL"), SweepOp("FULL_SPMVM"),
    ]))
    # waitall before the sends exist
    assert "s0:WAITALL is not ordered after s0:POST_SENDS" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("WAITALL"),
        SweepOp("POST_SENDS"), SweepOp("FULL_SPMVM"),
    ]))
    # leaked requests: no waitall at all
    assert "WAITALL appears 0x" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"),
        SweepOp("FULL_SPMVM"),
    ]))


def test_lint_catches_missing_pack():
    assert "PACK appears 0x" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("POST_SENDS"), SweepOp("WAITALL"),
        SweepOp("FULL_SPMVM"),
    ]))


def test_lint_catches_unpublished_buffers():
    # comm thread sends buffers but no barrier after PACK published them:
    # the comm thread is a team thread (Fig. 4c), so its spawn orders
    # nothing — only a barrier publishes the packed buffers to it
    prog = _prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("LOCAL_SPMVM"), SweepOp("OMP_BARRIER"), SweepOp("REMOTE_SPMVM"),
    ])
    assert "s0:POST_SENDS is not ordered after s0:PACK" in _messages(prog)


def test_lint_catches_unjoined_comm_thread():
    prog = _prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp("WAITALL"))),
        SweepOp("LOCAL_SPMVM"),
    ])
    msgs = _messages(prog)
    assert "never joined" in msgs


def test_lint_catches_premature_halo_consumption():
    # remote part before the exchange completed
    assert "s0:REMOTE_SPMVM is not ordered after s0:WAITALL" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"),
        SweepOp("LOCAL_SPMVM"), SweepOp("REMOTE_SPMVM"), SweepOp("WAITALL"),
    ]))


def test_lint_catches_kernel_shape_violations():
    # both full and split kernels write the result
    assert "only kernel op" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"),
        SweepOp("WAITALL"), SweepOp("FULL_SPMVM"), SweepOp("LOCAL_SPMVM"),
        SweepOp("REMOTE_SPMVM"),
    ]))
    # remote accumulates into a result that does not exist yet
    assert "s0:REMOTE_SPMVM is not ordered after s0:LOCAL_SPMVM" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"),
        SweepOp("WAITALL"), SweepOp("REMOTE_SPMVM"), SweepOp("LOCAL_SPMVM"),
    ]))


def test_lint_rejects_every_seeded_fixture_program():
    # the thread-race fixtures run these programs *past* the lint to show
    # the sanitizer catching them live; the lint must reject each one
    from repro.check.fixtures import SEEDED_PROGRAMS

    assert len(SEEDED_PROGRAMS) == 2
    for name, build in SEEDED_PROGRAMS.items():
        assert _messages(build()), name


def test_lint_catches_sweep_tag_outside_the_program():
    ops = build_sweep("no_overlap", 2).ops
    assert "tagged sweep 1, outside 0..0" in _messages(_prog(ops, n_sweeps=1))
