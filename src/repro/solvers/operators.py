"""Linear-operator abstraction shared by all solvers.

Solvers only need ``shape``, ``matvec`` and inner products.  The two
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

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Global inner product of two distributed vectors."""
        ...

    def norm(self, x: np.ndarray) -> float:
        """Global 2-norm."""
        ...

    def matvec_chain(self, x: np.ndarray, n: int) -> list[np.ndarray]:
        """Apply the operator ``n`` times: ``[A x, A² x, ..., Aⁿ x]``."""
        ...

    def dot_many(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Batch of global inner products fused into one reduction."""
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

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Ordinary inner product."""
        return float(np.dot(x, y))

    def norm(self, x: np.ndarray) -> float:
        """Ordinary 2-norm."""
        return float(np.linalg.norm(x))

    def matvec_chain(self, x: np.ndarray, n: int, *, pipeline: bool = True) -> list[np.ndarray]:
        """``[A x, A² x, ..., Aⁿ x]`` by repeated matvec (nothing to pipeline)."""
        ys: list[np.ndarray] = []
        cur = x
        for _ in range(n):
            cur = self.A.matvec(cur)
            ys.append(cur)
        return ys

    def dot_many(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Batched inner products (no communication to fuse serially)."""
        return np.array([np.dot(x, y) for x, y in pairs], dtype=np.float64)


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
    *counted* traffic rather than timed noise (the :mod:`repro.bench`
    solver guard asserts on these).

    The operator owns its engine, whose task-mode matvecs park one
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
        """Close the engine (stops its communication thread; idempotent)."""
        self.engine.close()

    def __enter__(self) -> "DistributedOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _count_exchanges(self, n: int) -> None:
        self.counters["exchanges"] += n
        self.counters["messages"] += n * len(self.engine.halo.send_to)

    def _count_reduction(self) -> None:
        self.counters["reductions"] += 1
        self.counters["messages"] += 2

    @property
    def local_size(self) -> int:
        """Rows owned by this rank."""
        return self.engine.halo.n_rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Halo-exchanged distributed spMVM."""
        self._count_exchanges(1)
        return self.engine.multiply(x, self.scheme)

    def matvec_chain(self, x: np.ndarray, n: int, *, pipeline: bool = True) -> list[np.ndarray]:
        """``[A x, ..., Aⁿ x]`` as one n-sweep program (matrix powers).

        Pipelined by default: sweep ``i+1``'s receives are posted before
        sweep ``i``'s remote kernel (:func:`repro.program.build_sweep`),
        still one exchange (= one message per peer) per sweep.
        """
        self._count_exchanges(n)
        return self.engine.multiply_chain(x, n, self.scheme, pipeline=pipeline)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Allreduce inner product."""
        self._count_reduction()
        return float(self.comm.allreduce(float(np.dot(x, y))))

    def dot_many(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Many inner products fused into ONE elementwise allreduce.

        This is the communication-avoiding half of the s-step CG: the
        scalar products of one outer step share a single collective.
        """
        self._count_reduction()
        local = np.array([np.dot(x, y) for x, y in pairs], dtype=np.float64)
        return np.asarray(self.comm.allreduce(local), dtype=np.float64)

    def norm(self, x: np.ndarray) -> float:
        """Allreduce 2-norm."""
        return float(np.sqrt(self.dot(x, x)))
