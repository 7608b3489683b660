"""The sweep IR: one backend-neutral program per Fig. 4 scheme.

The paper's three hybrid schemes differ only in the *ordering and
concurrency* of the same phases — gather, halo exchange, local spMVM,
waitall, remote spMVM.  A :class:`SweepProgram` states that ordering
once, as a flat list of typed, sweep-tagged ops spanning ``n_sweeps``
chained sweeps (a lone spMVM is the ``n_sweeps = 1`` program), and every
consumer interprets the same program:

* the real-execution backend (:mod:`repro.program.exec`) runs it on
  mpilite data and produces this rank's slice of ``A @ x``,
* the simulation backend (:mod:`repro.program.sim`) runs it as a
  simulator process and produces trace events and timings,
* the program lint (:mod:`repro.program.lint`) proves its structural
  invariants without running anything.

Op vocabulary
-------------
``POST_RECVS``
    Post every inbound halo request of the sweep (nonblocking).  The MPI
    library owns the sweep's halo slot from here until ``WAITALL``.
``PACK``
    Gather the owned RHS elements into send buffers (a leader's own
    share of a relay aggregate included); the simulator prices it as
    the ``gather`` compute phase.
``POST_SENDS``
    Issue every payload-ready outbound message (and, under a comm plan,
    arm the relay duties).
``WAITALL``
    Complete the whole exchange: every posted request, including relayed
    traffic, and land the halo segments in the halo buffer.
``LOCAL_SPMVM`` / ``REMOTE_SPMVM``
    The two phases of the split kernel (Eq. 2): rows against owned
    columns, then rows against the received halo.
``FULL_SPMVM``
    The unsplit kernel of Fig. 4a (result written once).  Real backends
    with split-stored matrices lower it to local-then-remote in the
    same arithmetic order, so numerics are scheme-independent.
``OMP_BARRIER``
    Intra-rank thread barrier.  On the main path, while a
    ``COMM_THREAD`` region is open, it pairs with the body's next
    ``OMP_BARRIER`` (a two-party rendezvous); once the body has none
    left it is the region's *join point*: the compute threads wait for
    the communication thread before crossing it.
``COMM_THREAD(body)``
    Fig. 4c's dedicated communication thread: run *body* (MPI calls,
    paced by ``OMP_BARRIER`` rendezvous points) concurrently with the
    ops that follow, until a main-path ``OMP_BARRIER`` joins it.

Programs are backend-neutral and width-neutral: the same op sequence
serves spmv (k = 1) and batched spmm (k > 1); ``block_k`` is metadata
for the simulator's cost model, not a structural parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.util import check_in

__all__ = [
    "OP_KINDS",
    "COMPUTE_OPS",
    "COMM_OPS",
    "WORK_OPS",
    "SIM_PHASE_LABELS",
    "SweepOp",
    "SweepProgram",
]

#: Every op kind the backends understand (stable identifiers; they are
#: what the golden cross-backend test compares).
OP_KINDS = (
    "POST_RECVS",
    "PACK",
    "POST_SENDS",
    "LOCAL_SPMVM",
    "WAITALL",
    "REMOTE_SPMVM",
    "FULL_SPMVM",
    "OMP_BARRIER",
    "COMM_THREAD",
)

#: Ops that run on the compute threads (memory traffic in the simulator).
COMPUTE_OPS = ("PACK", "LOCAL_SPMVM", "REMOTE_SPMVM", "FULL_SPMVM")

#: Ops that execute MPI library code (legal inside a COMM_THREAD body).
COMM_OPS = ("POST_RECVS", "POST_SENDS", "WAITALL")

#: Ops that do per-sweep work (everything except synchronisation and the
#: COMM_THREAD marker) — the multiset the builders must preserve per
#: sweep, however many sweeps a program chains and however it pipelines.
WORK_OPS = COMM_OPS + COMPUTE_OPS

#: Trace phase label the simulation backend emits for each compute op —
#: the contract that keeps every :mod:`repro.obs` analysis (phase
#: summaries, overlap-bytes-during-local-spMVM) working unchanged.
SIM_PHASE_LABELS = {
    "PACK": "gather",
    "LOCAL_SPMVM": "local spMVM",
    "REMOTE_SPMVM": "remote spMVM",
    "FULL_SPMVM": "full spMVM",
}


@dataclass(frozen=True)
class SweepOp:
    """One typed instruction of a sweep program.

    ``body`` is only meaningful (and required) for ``COMM_THREAD``; it
    holds the ops the dedicated communication thread executes.
    ``sweep`` is the chained sweep (iteration) the op belongs to.
    """

    kind: str
    body: tuple["SweepOp", ...] = ()
    sweep: int = 0

    def __post_init__(self) -> None:
        check_in(self.kind, OP_KINDS, "op kind")
        if self.sweep < 0:
            raise ValueError(f"sweep index must be >= 0, got {self.sweep}")
        if self.kind == "COMM_THREAD":
            if not self.body:
                raise ValueError("COMM_THREAD requires a non-empty body")
            for op in self.body:
                if op.kind == "COMM_THREAD":
                    raise ValueError("COMM_THREAD regions cannot nest")
        elif self.body:
            raise ValueError(f"op {self.kind} cannot carry a body")

    def __repr__(self) -> str:
        tag = f"@{self.sweep}" if self.sweep else ""
        if self.kind == "COMM_THREAD":
            return f"COMM_THREAD({', '.join(repr(op) for op in self.body)}){tag}"
        return f"{self.kind}{tag}"

    @property
    def token(self) -> str:
        """The op's signature token: ``KIND`` in sweep 0, else ``s{n}:KIND``.

        Eliding the sweep-0 tag (as ``__repr__`` does) keeps every
        single-sweep signature — frozen in ``tests/test_program_golden.py``
        — byte-stable.
        """
        return f"s{self.sweep}:{self.kind}" if self.sweep else self.kind

    def tokens(self) -> tuple[str, ...]:
        """What executing the op logs: its token, or the delimited body.

        A ``COMM_THREAD`` region is ``COMM_THREAD{``, its body tokens,
        ``}`` — body ops appear at the spawn point (issue order); the
        true interleaving against the concurrent compute ops is the
        schedulers' business, not the program's.
        """
        if self.kind == "COMM_THREAD":
            return ("COMM_THREAD{", *(inner.token for inner in self.body), "}")
        return (self.token,)


@dataclass(frozen=True)
class SweepProgram:
    """One scheme's op stream over ``n_sweeps`` chained sweeps, as data.

    ``scheme`` names the Fig. 4 variant the program encodes and
    ``block_k`` the number of right-hand sides per sweep (cost
    metadata).  Which messages the communication ops move is the
    backend's comm plan, not the program's business.

    Execution semantics are *chained*: sweep ``s`` consumes the result
    of sweep ``s-1`` as its input (the matrix-powers kernel
    ``[A x, A² x, ..., A^N x]``, which the communication-avoiding
    solvers fuse their spMVMs into); a single spMVM is ``n_sweeps = 1``.
    With ``pipeline`` the stream overlaps sweep boundaries — sweep
    ``s+1``'s ``POST_RECVS`` hoisted before sweep ``s``'s
    ``REMOTE_SPMVM``, and (task mode) one long-lived ``COMM_THREAD``
    region whose body spans all sweeps.  Only the simulation backend
    interprets ``n_sweeps > 1``; the real backend runs single sweeps.
    """

    scheme: str
    ops: tuple[SweepOp, ...]
    n_sweeps: int = 1
    pipeline: bool = False
    block_k: int = 1
    #: free-form provenance (builder name, plan kind, ...)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if self.block_k < 1:
            raise ValueError(f"block_k must be >= 1, got {self.block_k}")
        if not self.ops:
            raise ValueError("a sweep program needs at least one op")

    def walk(self) -> Iterator[tuple[SweepOp, bool]]:
        """Every op with its context: ``(op, inside_comm_thread)``.

        COMM_THREAD markers themselves appear with ``False``; their body
        ops follow with ``True`` — the linear order in which the
        backends *issue* the ops.
        """
        for op in self.ops:
            yield op, False
            for inner in op.body:
                yield inner, True

    def signature(self) -> tuple[str, ...]:
        """The canonical op sequence (:meth:`SweepOp.tokens`, concatenated).

        Both backends log exactly this shape while executing, so the
        golden cross-backend test compares signatures, not object
        graphs.
        """
        return tuple(token for op in self.ops for token in op.tokens())

    @property
    def label(self) -> str:
        """Scheme, sweep count, mode and width."""
        mode = "pipelined" if self.pipeline else "sequential"
        return f"{self.scheme} x{self.n_sweeps} [{mode}, k={self.block_k}]"

    def describe(self) -> str:
        """One line: the :attr:`label` and the op sequence."""
        return f"{self.label}: " + " -> ".join(repr(op) for op in self.ops)

    def program_id(self) -> str:
        """Short stable identifier for cost attribution (repro.obs)."""
        mode = "pipe" if self.pipeline else "seq"
        return f"{self.scheme}/k{self.block_k}/n{self.n_sweeps}/{mode}"
