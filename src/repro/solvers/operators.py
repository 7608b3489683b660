"""Linear-operator abstraction shared by all solvers.

Solvers only need ``local_size``, ``matvec`` and inner products.
``dot(x, y)`` takes a vector (→ a float) or a 2-D block whose rows are
vectors (→ one value per row, still one reduction): Lanczos
orthogonalises against its whole basis with one call.  The two
implementations are

* :class:`SerialOperator` — wraps a :class:`~repro.sparse.csr.CSRMatrix`
  (or anything with ``matvec``/``shape``) for single-process use, and
* :class:`DistributedOperator` — one rank's view of a distributed matrix
  over mpilite: matvec is the halo-exchanged spMVM (any Fig. 4 scheme),
  inner products are allreduces.  An entire Lanczos or CG run then
  executes SPMD, exactly as the paper's application codes do.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm.plan import CommPlan
from repro.core.halo import RankHalo
from repro.core.spmvm import DistributedSpMVM
from repro.mpilite.comm import Comm
from repro.sparse.csr import CSRMatrix

__all__ = ["LinearOperator", "SerialOperator", "DistributedOperator"]


@runtime_checkable
class LinearOperator(Protocol):
    """What a solver needs from an operator."""

    @property
    def local_size(self) -> int:
        """Length of the locally held vector slice."""
        ...

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to the local slice (communicating if needed)."""
        ...

    def dot(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """Global inner product of two distributed vectors (a float), or,
        for a 2-D *x* whose rows are vectors, the inner product of every
        row with *y*: one value per row, from one local ``gemv`` and one
        reduction however many rows there are."""
        ...

    def norm(self, x: np.ndarray) -> float:
        """Global 2-norm."""
        ...


class SerialOperator:
    """A plain single-process operator around a CSR matrix."""

    def __init__(self, A: CSRMatrix) -> None:
        if A.nrows != A.ncols:
            raise ValueError("solvers require a square operator")
        self.A = A

    @property
    def local_size(self) -> int:
        """Vector length (the full dimension)."""
        return self.A.nrows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        return self.A.matvec(x)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """Ordinary inner product; one per row of a 2-D *x*."""
        return float(np.dot(x, y)) if x.ndim == 1 else np.dot(x, y)

    def norm(self, x: np.ndarray) -> float:
        """Ordinary 2-norm."""
        return float(np.linalg.norm(x))


class DistributedOperator:
    """One rank's handle on a distributed matrix (SPMD solvers).

    Parameters
    ----------
    comm:
        mpilite communicator.
    halo:
        This rank's halo plan (with sub-matrices).
    scheme:
        Which Fig. 4 execution scheme the matvec uses.
    comm_plan:
        Optional comm plan (see
        :class:`~repro.core.spmvm.DistributedSpMVM`): ``None`` or a
        ``direct`` plan is the direct exchange (one message per peer, no
        relay duties), a ``node-aware``
        :class:`~repro.comm.plan.CommPlan` routes inter-node traffic
        through per-node leaders.  Solver iterates are bit-identical
        either way.

    The ``counters`` dict tallies communication economics — halo
    ``exchanges``, collective ``reductions``, and total ``messages``
    this rank posts: one per send peer per exchange (direct-exchange
    accounting) plus two per collective (this rank's up-and-down hop of
    a rooted reduction) — so solver variants can be compared on
    *counted* traffic rather than timed noise (the ledger reports them
    as ``solvers.exchanges`` / ``reductions`` / ``messages``).

    The operator owns its engine, whose task-mode matvecs hold one
    communication thread for the whole solve: :meth:`close` it (or use
    the operator as a context manager) when the solve is done.
    """

    def __init__(
        self,
        comm: Comm,
        halo: RankHalo,
        scheme: str = "task_mode",
        *,
        comm_plan: CommPlan | None = None,
    ) -> None:
        self.comm = comm
        self.engine = DistributedSpMVM(comm, halo, comm_plan=comm_plan)
        self.scheme = scheme
        self.counters: dict[str, int] = {"exchanges": 0, "messages": 0, "reductions": 0}

    def close(self) -> None:
        """Close the engine (gives its communication thread back; idempotent)."""
        self.engine.close()

    def __enter__(self) -> "DistributedOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _count_exchange(self) -> None:
        self.counters["exchanges"] += 1
        self.counters["messages"] += len(self.engine.halo.send_to)

    def _count_reduction(self) -> None:
        self.counters["reductions"] += 1
        self.counters["messages"] += 2

    @property
    def local_size(self) -> int:
        """Rows owned by this rank."""
        return self.engine.halo.n_rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Halo-exchanged distributed spMVM."""
        self._count_exchange()
        return self.engine.multiply(x, self.scheme)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """Allreduce inner product; a 2-D *x* reduces one value per row
        in the same single allreduce (the result is read-only: every
        rank holds the same array)."""
        self._count_reduction()
        if x.ndim == 1:
            return float(self.comm.allreduce(float(np.dot(x, y))))
        return self.comm.allreduce(np.dot(x, y))

    def norm(self, x: np.ndarray) -> float:
        """Allreduce 2-norm."""
        return float(np.sqrt(self.dot(x, x)))
