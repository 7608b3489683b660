"""The scheme builders: the single source of truth for Fig. 4 semantics.

:func:`build_sweep` emits the one :class:`~repro.program.ir.SweepProgram`
per scheme that *both* backends execute.  Nothing else in the
repository is allowed to hard-code the phase ordering of a scheme — a
new scheme is a new entry here, and immediately runs on mpilite, in the
simulator, and under the program lint.

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
"""

from __future__ import annotations

import functools

from repro.program.ir import SweepOp, SweepProgram
from repro.util import check_in

__all__ = [
    "PROGRAM_SCHEMES",
    "build_sweep",
    "cached_sweep_program",
    "all_sweep_programs",
]


def _ops(*kinds: str) -> tuple[SweepOp, ...]:
    return tuple(SweepOp(kind) for kind in kinds)


#: Each scheme's sweep, in its Fig. 4 phase ordering.
_SCHEME_OPS = {
    "no_overlap": _ops("POST_RECVS", "PACK", "POST_SENDS", "WAITALL", "FULL_SPMVM"),
    "naive_overlap": _ops(
        "POST_RECVS", "PACK", "POST_SENDS", "LOCAL_SPMVM", "WAITALL", "REMOTE_SPMVM",
    ),
    "task_mode": (
        *_ops("POST_RECVS", "PACK", "OMP_BARRIER"),
        SweepOp("COMM_THREAD", body=_ops("POST_SENDS", "WAITALL")),
        *_ops("LOCAL_SPMVM", "OMP_BARRIER", "REMOTE_SPMVM"),
    ),
}

#: The Fig. 4 schemes, in paper order: the one name for them, which the
#: real backend, the simulator and the service all import.
PROGRAM_SCHEMES = tuple(_SCHEME_OPS)


def build_sweep(scheme: str, *, block_k: int = 1) -> SweepProgram:
    """Build the one-spMVM program of one Fig. 4 *scheme*.

    ``block_k`` is the number of right-hand sides per sweep (the op
    sequence is identical for every k; the simulator prices compute ops
    with it).
    """
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    return SweepProgram(scheme=scheme, ops=_SCHEME_OPS[scheme], block_k=block_k)


@functools.lru_cache(maxsize=None)
def cached_sweep_program(scheme: str) -> SweepProgram:
    """The compile-once sweep of *scheme*: what the real backend runs.

    Programs are immutable data, so every engine asking for the same
    scheme shares one compiled instance — the build-once/serve-many
    contract applied to the IR itself.  (Block-tagged programs are the
    simulator's, which calls :func:`build_sweep`.)
    """
    return build_sweep(scheme)


def all_sweep_programs(
    *, block_widths: tuple[int, ...] = (1, 4)
) -> list[SweepProgram]:
    """Every distinct builder output: scheme x k.

    This is what ``repro check`` lints — the program shapes either
    backend can ever be handed.
    """
    return [
        build_sweep(scheme, block_k=k)
        for scheme in PROGRAM_SCHEMES
        for k in block_widths
    ]
