"""Sweep IR: op/program validation, builders, and the program lint."""


import pytest

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


def test_comm_thread_body_holds_mpi_ops_only():
    # a communication thread executes library calls, never compute, and
    # a region has no barrier inside it: refused when the op is built
    for kind in ("LOCAL_SPMVM", "PACK", "OMP_BARRIER"):
        with pytest.raises(ValueError, match=f"MPI ops only .*not {kind}"):
            SweepOp("COMM_THREAD", body=(SweepOp("POST_SENDS"), SweepOp(kind)))


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
    for gone in ("n_sweeps", "pipeline", "meta"):  # a program is one sweep, nothing else
        with pytest.raises(TypeError, match=gone):
            _prog([SweepOp("PACK")], **{gone: 1})
    with pytest.raises(TypeError, match="sweep"):
        SweepOp("PACK", sweep=1)
    with pytest.raises(TypeError, match="halo_depth"):
        _prog([SweepOp("PACK")], halo_depth=2)  # the ring went with the real-backend chain


def test_walk_and_signature_delimit_comm_thread():
    prog = build_sweep("task_mode")
    kinds = [(op.kind, inside) for op, inside in prog.walk()]
    assert ("POST_SENDS", True) in kinds and ("WAITALL", True) in kinds
    assert kinds[0] == ("POST_RECVS", False)
    sig = prog.signature()
    assert sig.index("COMM_THREAD{") < sig.index("POST_SENDS") < sig.index("}")
    assert prog.describe().startswith("task_mode [k=1]: ")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def test_scheme_tuples_agree_with_builders():
    # the builders own the one tuple; no backend binds a second name to it
    import repro.core
    import repro.core.schemes
    import repro.core.spmvm

    for mod in (repro.core, repro.core.schemes, repro.core.spmvm):
        assert not hasattr(mod, "SCHEMES") and not hasattr(mod, "SIM_SCHEMES"), mod
    assert [build_sweep(s).scheme for s in PROGRAM_SCHEMES] == list(PROGRAM_SCHEMES)


def test_all_builder_outputs_lint_clean():
    programs = all_sweep_programs()
    # schemes x widths, one sweep each
    assert len(programs) == len(PROGRAM_SCHEMES) * 2 == 6
    assert [p.program_id() for p in programs[:2]] == ["no_overlap/k1", "no_overlap/k4"]
    assert lint_sweep_programs(programs) == []
    assert lint_sweep_programs() == []


@pytest.mark.parametrize("scheme", PROGRAM_SCHEMES)
def test_cached_sweep_program_is_the_one_build(scheme):
    # the real backend's compile-once program is the built sweep, and
    # takes nothing but the scheme
    from repro.program import cached_sweep_program

    assert cached_sweep_program(scheme) is cached_sweep_program(scheme) == build_sweep(scheme)
    with pytest.raises(TypeError):
        build_sweep(scheme, 3)  # no sweep count: a program is one sweep


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


def test_lint_catches_request_lifecycle_violations():
    # sends before receives
    assert "POST_SENDS is not ordered after POST_RECVS" in _messages(_prog([
        SweepOp("POST_SENDS"), SweepOp("POST_RECVS"), SweepOp("PACK"),
        SweepOp("WAITALL"), SweepOp("FULL_SPMVM"),
    ]))
    # waitall before the sends exist
    assert "WAITALL is not ordered after POST_SENDS" in _messages(_prog([
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
    assert "POST_SENDS is not ordered after PACK" in _messages(prog)


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
    assert "REMOTE_SPMVM is not ordered after WAITALL" in _messages(_prog([
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
    assert "REMOTE_SPMVM is not ordered after LOCAL_SPMVM" in _messages(_prog([
        SweepOp("POST_RECVS"), SweepOp("PACK"), SweepOp("POST_SENDS"),
        SweepOp("WAITALL"), SweepOp("REMOTE_SPMVM"), SweepOp("LOCAL_SPMVM"),
    ]))


def test_lint_rejects_every_seeded_fixture_program():
    # the thread-race fixtures run these programs *past* the lint to show
    # the checker catching them live; the lint must reject each one
    from repro.check.fixtures import SEEDED_PROGRAMS

    assert len(SEEDED_PROGRAMS) == 2
    for name, build in SEEDED_PROGRAMS.items():
        assert _messages(build()), name

