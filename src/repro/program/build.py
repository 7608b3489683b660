"""The scheme builders: the single source of truth for Fig. 4 semantics.

:func:`build_sweep` emits the one :class:`~repro.program.ir.SweepProgram`
per scheme and sweep count that *both* backends execute.  Nothing else
in the repository is allowed to hard-code the phase ordering of a
scheme — a new scheme is a new builder here, and immediately runs on
mpilite, in the simulator, and under the program lint.

* **no_overlap** (Fig. 4a) — gather, exchange, then one full-kernel
  spMVM::

      POST_RECVS -> PACK -> POST_SENDS -> WAITALL -> FULL_SPMVM

* **naive_overlap** (Fig. 4b) — the local spMVM is *meant* to overlap
  the nonblocking exchange; whether any bytes move during it is the MPI
  progress model's decision, not the program's::

      POST_RECVS -> PACK -> POST_SENDS -> LOCAL_SPMVM -> WAITALL
                 -> REMOTE_SPMVM

* **task_mode** (Fig. 4c) — a dedicated communication thread completes
  the exchange (holding the MPI progress gate open) while the compute
  threads run the local spMVM; OpenMP-style barriers publish the packed
  buffers to the thread and join it before the remote part::

      POST_RECVS -> PACK -> OMP_BARRIER
                 -> COMM_THREAD(POST_SENDS, WAITALL)
                 -> LOCAL_SPMVM -> OMP_BARRIER -> REMOTE_SPMVM

Those are the ``n_sweeps = 1`` programs.  For N chained sweeps the same
builder either concatenates N sweep-tagged copies (``pipeline=False``)
or *pipelines* across the sweep boundaries: sweep ``s+1``'s receives
hoisted before sweep ``s``'s halo-consuming kernel, and in task mode one
long-lived communication thread paced by barrier rendezvous.  The
simulator interprets those (EXPERIMENTS.md, "The chain's verdict"); the
real backend runs single sweeps only.
"""

from __future__ import annotations

import functools

from repro.program.ir import SweepOp, SweepProgram
from repro.util import check_in, check_positive_int

__all__ = [
    "PROGRAM_SCHEMES",
    "build_sweep",
    "cached_sweep_program",
    "all_sweep_programs",
]

#: The Fig. 4 schemes, in paper order: the one name for them, which the
#: real backend, the simulator and the service all import.
PROGRAM_SCHEMES = ("no_overlap", "naive_overlap", "task_mode")


def _op(kind: str, sweep: int) -> SweepOp:
    return SweepOp(kind, sweep=sweep)


def _sweep_ops(scheme: str, s: int) -> tuple[SweepOp, ...]:
    """Sweep *s* in the Fig. 4 phase ordering of *scheme*."""
    if scheme == "no_overlap":
        kinds = ("POST_RECVS", "PACK", "POST_SENDS", "WAITALL", "FULL_SPMVM")
    elif scheme == "naive_overlap":
        kinds = (
            "POST_RECVS", "PACK", "POST_SENDS", "LOCAL_SPMVM", "WAITALL",
            "REMOTE_SPMVM",
        )
    else:  # task_mode
        body = (_op("POST_SENDS", s), _op("WAITALL", s))
        return (
            _op("POST_RECVS", s),
            _op("PACK", s),
            _op("OMP_BARRIER", s),
            SweepOp("COMM_THREAD", body=body, sweep=s),
            _op("LOCAL_SPMVM", s),
            _op("OMP_BARRIER", s),
            _op("REMOTE_SPMVM", s),
        )
    return tuple(_op(kind, s) for kind in kinds)


def _pipelined_vector_ops(scheme: str, n_sweeps: int) -> tuple[SweepOp, ...]:
    """no_overlap / naive_overlap with sweep s+1's receives hoisted.

    Sweep ``s+1``'s ``POST_RECVS`` is issued right after sweep ``s``'s
    ``WAITALL`` — before the halo-consuming kernel of sweep ``s`` — so
    the next exchange's receives are preposted while this sweep still
    computes (into a second halo buffer, which a backend running this
    would have to provide).
    """
    split = scheme == "naive_overlap"
    kernel = "REMOTE_SPMVM" if split else "FULL_SPMVM"
    ops: list[SweepOp] = [_op("POST_RECVS", 0)]
    for s in range(n_sweeps):
        ops.append(_op("PACK", s))
        ops.append(_op("POST_SENDS", s))
        if split:
            ops.append(_op("LOCAL_SPMVM", s))
        ops.append(_op("WAITALL", s))
        if s + 1 < n_sweeps:
            ops.append(_op("POST_RECVS", s + 1))
        ops.append(_op(kernel, s))
    return tuple(ops)


def _pipelined_task_ops(n_sweeps: int) -> tuple[SweepOp, ...]:
    """task_mode with ONE long-lived comm thread spanning all sweeps.

    The body runs every sweep's sends/waits; ``OMP_BARRIER`` ops inside
    the body are *rendezvous* points with the matching main-path
    barriers.  Per sweep boundary there are two rendezvous:

    * **exchange-done** — after ``WAITALL s``, before the main path may
      run ``REMOTE_SPMVM s``.  The comm thread then posts sweep
      ``s+1``'s receives, causally *concurrent* with the main path's
      remote kernel of sweep ``s`` — the cross-iteration pipelining
      the sweep tags exist for (the receives need a second halo buffer).
    * **pack-published** — after the main path packed sweep ``s+1``'s
      send buffers (from sweep ``s``'s result), before the comm thread
      may send them.

    The final main-path barrier (after the last rendezvous is consumed)
    joins the thread.
    """
    body: list[SweepOp] = []
    for s in range(n_sweeps):
        body.append(_op("POST_SENDS", s))
        body.append(_op("WAITALL", s))
        if s + 1 < n_sweeps:
            body.append(_op("OMP_BARRIER", s))       # exchange-done s
            body.append(_op("POST_RECVS", s + 1))
            body.append(_op("OMP_BARRIER", s + 1))   # pack-published s+1
    ops: list[SweepOp] = [
        _op("POST_RECVS", 0),
        _op("PACK", 0),
        _op("OMP_BARRIER", 0),
        SweepOp("COMM_THREAD", body=tuple(body)),
    ]
    for s in range(n_sweeps):
        ops.append(_op("LOCAL_SPMVM", s))
        ops.append(_op("OMP_BARRIER", s))            # exchange-done s (or join)
        ops.append(_op("REMOTE_SPMVM", s))
        if s + 1 < n_sweeps:
            ops.append(_op("PACK", s + 1))
            ops.append(_op("OMP_BARRIER", s + 1))    # pack-published s+1
    return tuple(ops)


def build_sweep(
    scheme: str,
    n_sweeps: int = 1,
    *,
    pipeline: bool = True,
    block_k: int = 1,
) -> SweepProgram:
    """Build the N-sweep chained program of one Fig. 4 *scheme*.

    Sweep ``s`` consumes sweep ``s-1``'s result (the matrix-powers
    chain ``A x, A² x, ...``); ``n_sweeps = 1`` is the plain spMVM.
    With ``pipeline=True`` (the default) sweep ``s+1``'s ``POST_RECVS``
    is hoisted before sweep ``s``'s halo-consuming kernel; task mode
    additionally keeps one long-lived communication thread across all
    sweeps.  ``pipeline=False`` emits the plain concatenation of single
    sweeps — the baseline the simulator study compares against.  A
    single sweep has no boundary to pipeline across, so ``pipeline`` is
    stored as ``False`` there.

    ``block_k`` is the number of right-hand sides per sweep (the op
    sequence is identical for every k; the simulator prices compute ops
    with it).
    """
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    check_positive_int(n_sweeps, "n_sweeps")
    pipeline = pipeline and n_sweeps > 1
    if not pipeline:
        ops = tuple(op for s in range(n_sweeps) for op in _sweep_ops(scheme, s))
    elif scheme == "task_mode":
        ops = _pipelined_task_ops(n_sweeps)
    else:
        ops = _pipelined_vector_ops(scheme, n_sweeps)
    return SweepProgram(
        scheme=scheme,
        ops=ops,
        n_sweeps=n_sweeps,
        pipeline=pipeline,
        block_k=block_k,
        meta={"builder": "build_sweep"},
    )


@functools.lru_cache(maxsize=None)
def cached_sweep_program(scheme: str) -> SweepProgram:
    """The compile-once single sweep of *scheme*: what the real backend runs.

    Programs are immutable data, so every engine asking for the same
    scheme shares one compiled instance — the build-once/serve-many
    contract applied to the IR itself.  (Chains and block-tagged
    programs are the simulator's, which calls :func:`build_sweep`.)
    """
    return build_sweep(scheme)


def all_sweep_programs(
    *, block_widths: tuple[int, ...] = (1, 4)
) -> list[SweepProgram]:
    """Every distinct builder output: scheme x N x mode x k.

    This is what ``repro check --programs`` lints — the program shapes
    either backend can ever be handed: one to three chained sweeps
    (every longer chain repeats the N = 3 sweep-boundary pattern),
    pipelined and sequential (a single sweep has one mode, so N = 1
    contributes once).
    """
    return [
        build_sweep(scheme, n, pipeline=pipeline, block_k=k)
        for scheme in PROGRAM_SCHEMES
        for n in (1, 2, 3)
        for pipeline in ((True, False) if n > 1 else (False,))
        for k in block_widths
    ]
