"""Distributed sparse matrix-vector multiplication (functional execution).

This is the paper's kernel, actually running: each mpilite rank owns a
row block, the matching slices of the RHS/result vectors, and the
communication plan from :func:`repro.core.halo.build_halo_plan`.  All
three execution schemes of Fig. 4 are available:

* ``no_overlap``   — gather, exchange, then one full spMVM (Fig. 4a),
* ``naive_overlap``— nonblocking exchange "overlapped" with the local
  part of the spMVM (Fig. 4b; on real 2010-era MPI this overlaps
  nothing — demonstrated by the simulator, not executable semantics),
* ``task_mode``    — a dedicated communication thread completes the
  exchange while the caller computes the local part (Fig. 4c).

The phase ordering of each scheme lives in exactly one place: the sweep
IR (:func:`repro.program.build_sweep`).  :class:`DistributedSpMVM` owns
the long-lived per-rank state — communicator, halo bookkeeping,
preallocated buffers, split sub-matrices — and hands every multiply to
the real-execution interpreter (:func:`repro.program.execute_sweep`),
which runs the scheme's program op by op.  spmv and batched multi-RHS
spmm are the k = 1 / k > 1 cases of that one interpreter, and the direct
and node-aware exchanges are two plans replayed by its one compiled
:class:`~repro.comm.exec.RankExchange`.  The numerical result is
identical in every scheme and plan: the local part is accumulated
before the remote part, row by row.

The hot paths call no allocator: halo and send buffers (relay
aggregates included) are allocated once per batch width and refilled
with ``np.take(..., out=...)`` — the router copies payloads on send, so
the buffers are immediately reusable, exactly the ``MPI_Send``
guarantee.

The task-mode communication thread is a team thread, as in the paper:
each engine borrows ONE from the process-wide team
(:mod:`repro.mpilite.team`) at its first ``COMM_THREAD`` region and
hands it every region through a mailbox, so a sweep pays two queue
hand-offs, not a thread start and a join — and the next engine borrows
a parked thread instead of starting one.  Vector-mode engines never
borrow one.  Whoever builds an engine closes it
(:meth:`DistributedSpMVM.close`, or ``with``), which gives the thread
back; an engine that is dropped unclosed gives it back from a finalizer.

Note on Python: the compiled row-sum executor (:mod:`repro.sparse.native`)
releases the GIL for the whole kernel call, so the comm thread's sends
and waits do run beside the local kernel; what stays serialised is the
interpreter's own bytecode and the numpy fallback.  How much wall-clock
overlap that buys depends on the host (EXPERIMENTS.md) — the calibrated
simulator, not this backend, reproduces the paper's figures.
"""

from __future__ import annotations

import weakref
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.exec import RankExchange
from repro.comm.plan import PLAN_KINDS, CommPlan, cached_comm_plan
from repro.core.halo import RankHalo, cached_halo_plan
from repro.mpilite.comm import Comm
from repro.mpilite.team import TeamThread, borrow, give_back
from repro.mpilite.world import PerRank, run_spmd
from repro.program.build import PROGRAM_SCHEMES, cached_sweep_program
from repro.program.exec import execute_sweep
from repro.program.ir import SweepProgram
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import spmm, spmm_add, spmv, spmv_add
from repro.util import check_in, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.checker import Checker

__all__ = [
    "DistributedSpMVM",
    "distributed_spmv",
    "distributed_spmm",
    "lower_comm_plan",
    "scatter_vector",
    "gather_vector",
]

# Ledger aliases.  benchmarks/ledger/layers.py (_dispatch_rank,
# stepped_sweep) reads engine.kernel.{spmv,spmv_add,spmm,spmm_add},
# engine.A_local_op, engine.A_remote_op and engine.halo_view and can only
# be edited by a [benchmark] PR, so the engine keeps those four names
# until ROADMAP item 8(e) deletes them.  Nothing under src/ reads them:
# the sweep calls the CSR kernels on halo.A_local / halo.A_remote and the
# landing buffer directly.
_LEDGER_KERNELS = SimpleNamespace(spmv=spmv, spmv_add=spmv_add, spmm=spmm, spmm_add=spmm_add)


class DistributedSpMVM:
    """Per-rank distributed spMVM engine.

    Parameters
    ----------
    comm:
        mpilite communicator of this rank.
    halo:
        This rank's piece of the communication plan (must carry the
        local/remote sub-matrices, i.e. built ``with_matrices=True``).
    comm_plan:
        Optional :class:`~repro.comm.plan.CommPlan` of the halo
        exchange.  ``None`` or a ``"direct"`` plan send one message per
        peer; a ``"node-aware"`` plan routes inter-node traffic through
        per-node leader ranks (gather → forward → scatter,
        :mod:`repro.comm`).  Results are bit-identical either way — the
        exchange only copies float64 payloads, never reorders
        arithmetic.

    The engine is observed when its communicator's world is: the sweep
    interpreter reads ``comm.observer`` (:class:`repro.check.Checker`)
    and notes every buffer access and comm-thread hand-off in domain
    ``rank{comm.rank}``.

    An engine that has run a task-mode sweep holds a team thread:
    :meth:`close` it (or use it as a context manager) when done.
    """

    # ledger aliases (see _LEDGER_KERNELS above; ROADMAP item 8(e))
    kernel = _LEDGER_KERNELS
    A_local_op = property(lambda self: self.halo.A_local)
    A_remote_op = property(lambda self: self.halo.A_remote)

    def __init__(
        self,
        comm: Comm,
        halo: RankHalo,
        comm_plan: CommPlan | None = None,
    ) -> None:
        if halo.A_local is None or halo.A_remote is None:
            raise ValueError("RankHalo lacks sub-matrices; build plan with_matrices=True")
        if halo.rank != comm.rank:
            raise ValueError(f"halo is for rank {halo.rank}, communicator is rank {comm.rank}")
        self.comm = comm
        self.halo = halo
        #: this rank's compiled exchange (no relay duties under a direct plan)
        self.exchange = RankExchange(comm_plan, halo)
        # one (halo landing buffer, send buffers) pair per width,
        # allocated on first use and refilled in place every MVM (the
        # router copies on send, so reuse across iterations is safe).
        # Keyed by the trailing shape: () for a vector, (k,) for a block.
        self._buffers: dict[tuple, tuple[np.ndarray, dict[int, np.ndarray]]] = {}
        #: the borrowed communication thread; None until the first
        #: COMM_THREAD region and again after close()
        self.comm_thread: TeamThread | None = None
        self.iterations = 0

    def team_thread(self) -> TeamThread:
        """The thread every COMM_THREAD region of this engine runs on.

        Borrowed from the team, as ``comm-thread-<rank>``, on first use.
        Between regions it refers to nothing of the engine, so the
        finalizer registered here gives it back when an engine is
        dropped without :meth:`close`.
        """
        team = self.comm_thread
        if team is None:
            team = self.comm_thread = borrow(f"comm-thread-{self.comm.rank}")
            self._give_back = weakref.finalize(self, give_back, team)
        return team

    def close(self) -> None:
        """Give the communication thread back to the team.

        Call it from the thread that sweeps, between sweeps.  Idempotent,
        and a no-op for an engine that never ran a COMM_THREAD region.
        The engine stays usable: a task-mode sweep after ``close()``
        borrows a thread again (close again after it).
        """
        if self.comm_thread is not None:
            self.comm_thread = None
            self._give_back()  # the finalizer, run now and only once

    def __enter__(self) -> "DistributedSpMVM":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def program(self, scheme: str) -> SweepProgram:
        """The compiled single-sweep program this engine runs for *scheme*.

        Compiled once per scheme process-wide
        (:func:`repro.program.cached_sweep_program`) — every engine of
        a persistent worker pool shares the same program instances.
        """
        return cached_sweep_program(scheme)

    # ------------------------------------------------------------------
    def _sweep(
        self,
        x: np.ndarray,
        scheme: str,
        *,
        op_log: list[str] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run *scheme*'s program on validated input *x*."""
        check_in(scheme, PROGRAM_SCHEMES, "scheme")
        self.iterations += 1
        return execute_sweep(self, self.program(scheme), x, op_log=op_log, out=out)

    def multiply(
        self,
        x_local: np.ndarray,
        scheme: str = "task_mode",
        *,
        op_log: list[str] | None = None,
    ) -> np.ndarray:
        """One distributed MVM: returns this rank's slice of ``A @ x``.

        ``op_log``, when given, receives the executed op sequence (the
        program's signature tokens) — see :func:`repro.program.execute_sweep`.
        """
        x_local = np.asarray(x_local, dtype=np.float64)
        if x_local.shape != (self.halo.n_rows,):
            raise ValueError(
                f"x_local must have shape ({self.halo.n_rows},), got {x_local.shape}"
            )
        return self._sweep(x_local, scheme, op_log=op_log)

    def multiply_block(
        self,
        X_local: np.ndarray,
        scheme: str = "task_mode",
        *,
        op_log: list[str] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One batched distributed MVM over k right-hand sides.

        Returns this rank's ``(n_rows, k)`` slice of ``A @ X``.  Column
        ``j`` is bit-identical to ``multiply(X[:, j], scheme)``, but the
        halo exchange moves each peer's segment for all k columns in a
        single message — one message per peer per *batch* instead of
        per vector.  Runs the *same* sweep program as :meth:`multiply`;
        only the buffers and kernels are k-column wide.  ``out``, when
        given, is the ``(n_rows, k)`` float64 buffer the kernels write
        the slice into (it must not overlap *X_local*); a caller that
        sweeps again and again keeps one and allocates nothing per call.
        """
        X_local = np.asarray(X_local, dtype=np.float64)
        if X_local.ndim != 2 or X_local.shape[0] != self.halo.n_rows:
            raise ValueError(
                f"X_local must have shape ({self.halo.n_rows}, k), got {X_local.shape}"
            )
        return self._sweep(X_local, scheme, op_log=op_log, out=out)

    # -- state the interpreter's op handlers drive ---------------------
    def sweep_buffers(self, x: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """(halo landing buffer, send buffers) a sweep of *x* uses."""
        cols = x.shape[1:]
        pair = self._buffers.get(cols)
        if pair is None:
            pair = self._buffers[cols] = (
                np.empty((self.halo.n_halo, *cols)), self.exchange.allocate(cols)
            )
        return pair

    def post_halo_receives(self) -> list:
        """POST_RECVS: post every inbound message of the exchange."""
        return self.exchange.post_receives(self.comm)

    def fill_send_buffers(
        self, x: np.ndarray, send_bufs: dict[int, np.ndarray]
    ) -> None:
        """PACK: gather everything this rank owns into *send_bufs*."""
        self.exchange.pack(x, send_bufs)

    def send_buffers(self, send_bufs: dict[int, np.ndarray]) -> None:
        """POST_SENDS: send every buffer that was complete once packed."""
        self.exchange.send(self.comm, send_bufs)

    def complete_halo_receives(self, recvs: list, halo_out: np.ndarray) -> None:
        """WAITALL: run the relay duties, land every segment in *halo_out*.

        *halo_out* is the landing buffer of :meth:`sweep_buffers`; a
        leader's relay aggregates are the send buffers paired with it.
        """
        landing, send_bufs = self._buffers.get(halo_out.shape[1:], (None, None))
        if landing is not halo_out:
            raise ValueError("halo_out is not a landing buffer of this engine")
        self.exchange.finish(self.comm, recvs, send_bufs, halo_out)

    def halo_view(self, halo_out: np.ndarray) -> np.ndarray:
        """*halo_out* itself (a ledger alias, see ``_LEDGER_KERNELS``):
        ``A_remote`` has one column per halo slot, none for an empty halo."""
        return halo_out


# ----------------------------------------------------------------------
# vector distribution helpers and the one-call drivers
# ----------------------------------------------------------------------
def scatter_vector(x: np.ndarray, partition: RowPartition, rank: int) -> np.ndarray:
    """This rank's row slice of a global vector (or ``(n, k)`` block)."""
    lo, hi = partition.bounds(rank)
    return np.asarray(x[lo:hi], dtype=np.float64).copy()


def gather_vector(pieces: list[np.ndarray]) -> np.ndarray:
    """Reassemble rank slices (in rank order) into the global vector/block."""
    return np.concatenate(pieces) if pieces else np.zeros(0)


def lower_comm_plan(plan, nranks: int, comm_plan: str, ranks_per_node: int = 1):
    """Resolve the drivers' ``comm_plan``/``ranks_per_node`` arguments.

    Returns ``None`` for the direct exchange (the engine compiles it
    from the halo lists, no plan object needed) or a cached node-aware
    :class:`~repro.comm.plan.CommPlan` for the rank-major placement
    ``node(r) = r // ranks_per_node``.
    """
    check_in(comm_plan, PLAN_KINDS, "comm_plan")
    if ranks_per_node < 1:
        raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
    if comm_plan == "direct":
        return None
    rank_node = [r // ranks_per_node for r in range(nranks)]
    return cached_comm_plan(plan, rank_node, kind="node-aware")


def _rank_sweeps(A, x, nranks, block, scheme, iterations, comm_plan, ranks_per_node):
    """The one-call drivers' SPMD body and its per-rank argument (*block*:
    *x* is a 2-D block, else a vector).

    Everything about the call is validated here, in the caller's thread,
    before any rank exists: ``scatter_vector`` slices, so a long *x*
    would lose its tail silently and a short one would fail on one rank.
    """
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    x = np.asarray(x, dtype=np.float64)
    ndim = 2 if block else 1
    if x.ndim != ndim or x.shape[0] != A.ncols:
        want = f"({A.ncols}, k)" if block else f"({A.ncols},)"
        raise ValueError(
            f"x must be a {ndim}-D array of shape {want} for a matrix of shape "
            f"{A.shape}, got shape {x.shape}"
        )
    check_positive_int(iterations, "iterations")
    plan = cached_halo_plan(A, nranks, with_matrices=True)
    cplan = lower_comm_plan(plan, nranks, comm_plan, ranks_per_node)

    def rank_fn(comm: Comm, halo: RankHalo) -> np.ndarray:
        with DistributedSpMVM(comm, halo, comm_plan=cplan) as engine:
            multiply = engine.multiply_block if block else engine.multiply
            x_local = scatter_vector(x, plan.partition, comm.rank)
            y_local = multiply(x_local, scheme)
            for _ in range(iterations - 1):
                comm.barrier()
                y_local = multiply(x_local, scheme)
            return y_local

    return rank_fn, PerRank(plan.ranks)


def distributed_spmv(
    A: CSRMatrix,
    x: np.ndarray,
    nranks: int,
    *,
    scheme: str = "task_mode",
    iterations: int = 1,
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    observer: "Checker | None" = None,
) -> np.ndarray:
    """Compute ``A @ x`` on *nranks* mpilite ranks (the integration driver).

    Partitions the matrix by balanced nonzeros (the paper's footnote 2),
    builds the halo plan (cached across calls on the same matrix), runs
    *iterations* multiplications (feeding the result back as the next
    input requires a square operator and matching partition — here each
    iteration re-multiplies the same ``x`` to exercise repeated
    communication), and reassembles the global result.

    ``comm_plan`` selects the halo-exchange plan (:mod:`repro.comm`);
    ``"node-aware"`` aggregates inter-node messages through per-node
    leaders, with nodes assigned rank-major from *ranks_per_node*.
    Results are bit-identical across plans.
    ``observer`` (a fresh :class:`repro.check.Checker` per call) is
    handed to the world: it watches the ranks and every engine's threads.
    """
    rank_fn, halos = _rank_sweeps(
        A, x, nranks, False, scheme, iterations, comm_plan, ranks_per_node
    )
    return gather_vector(run_spmd(nranks, rank_fn, halos, observer=observer))


def distributed_spmm(
    A: CSRMatrix,
    X: np.ndarray,
    nranks: int,
    *,
    scheme: str = "task_mode",
    iterations: int = 1,
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    observer: "Checker | None" = None,
) -> np.ndarray:
    """Compute the block product ``A @ X`` on *nranks* mpilite ranks.

    The batched twin of :func:`distributed_spmv`: one halo exchange (one
    message per peer) serves all ``X.shape[1]`` right-hand sides.  See
    :func:`distributed_spmv` for ``comm_plan``/``ranks_per_node``/
    ``observer``.
    """
    rank_fn, halos = _rank_sweeps(
        A, X, nranks, True, scheme, iterations, comm_plan, ranks_per_node
    )
    return gather_vector(run_spmd(nranks, rank_fn, halos, observer=observer))
