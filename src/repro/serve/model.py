"""BuiltModel: the build-once artifact of the solver service.

"The necessary bookkeeping needs to be done only once" (paper
Sect. 3.1) — a :class:`BuiltModel` is that bookkeeping made a first-
class object: the partitioned matrix, the halo plan with its per-rank
local/remote sub-matrices and the (optional) node-aware communication
plan.  :func:`build_model` is its only constructor.
:meth:`BuiltModel.save` persists what a build cannot
recompute — the matrix and the serving configuration (``repro-model/2``,
a plain ``.npz``: three numeric arrays plus one JSON metadata entry — no
pickle) — and :meth:`BuiltModel.load` reads that back, verifies it and
calls :func:`build_model`.  Hand the model to a
:class:`~repro.serve.service.SolverService` to serve requests against.
See DESIGN.md §12.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.plan import PLAN_KINDS, CommPlan
from repro.core.halo import HaloPlan, build_halo_plan, cached_halo_plan
from repro.program.build import PROGRAM_SCHEMES
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import partition_matrix
from repro.util import check_in

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spmvm import DistributedSpMVM
    from repro.mpilite.comm import Comm

__all__ = ["MODEL_SCHEMA", "BuiltModel", "build_model"]

#: Version tag of the on-disk layout.  Bump only on breaking changes.
MODEL_SCHEMA = "repro-model/2"

#: What a ``repro-model/2`` file must hold: the matrix arrays beside the
#: JSON ``meta`` entry, and the keys of ``meta`` beside ``schema``.
_ARRAYS = ("matrix.row_ptr", "matrix.col_idx", "matrix.val")
_META_KEYS = ("nranks", "scheme", "strategy", "comm_plan", "ranks_per_node", "fingerprint")


@dataclass
class BuiltModel:
    """Everything a solver service needs, built exactly once.

    ``fingerprint`` is the matrix's structure fingerprint at build time;
    :meth:`load` verifies it so a model can never be built from a file
    whose sparsity silently changed underneath it.  ``build_seconds``
    records what the build cost — the amortised quantity every warm
    request saves.
    """

    matrix: CSRMatrix
    plan: HaloPlan
    scheme: str
    strategy: str
    comm_plan_kind: str
    ranks_per_node: int
    comm_plan: CommPlan | None
    fingerprint: tuple
    build_seconds: float = 0.0

    @property
    def nranks(self) -> int:
        """Ranks of the worker pool this model was built for."""
        return self.plan.nranks

    def engine(self, comm: "Comm", *, sanitizer=None) -> "DistributedSpMVM":
        """The per-rank engine of ``comm.rank``, on this model's state.

        Construction is cheap by design: the halo plan, sub-matrices
        and comm plan already exist; the engine only allocates its
        per-rank sweep buffers.  The caller owns the engine and
        closes it (under task mode it parks a communication thread from
        its first sweep on).
        ``sanitizer`` attaches a thread sanitizer to the engine's sweeps
        (:mod:`repro.check.threads`); ``None`` costs nothing.
        """
        from repro.core.spmvm import DistributedSpMVM

        return DistributedSpMVM(
            comm,
            self.plan.ranks[comm.rank],
            comm_plan=self.comm_plan,
            sanitizer=sanitizer,
        )

    def describe(self) -> str:
        """One line: shape, ranks, scheme, comm plan."""
        return (
            f"BuiltModel({self.matrix.nrows} rows, nnz={self.matrix.nnz}, "
            f"{self.nranks} ranks, scheme={self.scheme}, "
            f"comm_plan={self.comm_plan_kind}, "
            f"built in {self.build_seconds * 1e3:.1f} ms)"
        )

    # ------------------------------------------------------------------
    # serialization (repro-model/2)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the model to *path* (``.npz``, schema ``repro-model/2``)
        and return the path written.

        Stores only what :func:`build_model` cannot recompute: the three
        matrix arrays, and in ``meta`` the serving configuration and the
        structure fingerprint.  Partition, halo bookkeeping, sub-matrices
        and comm plan are derived again by :meth:`load`, so
        nothing stored can drift from the code that builds it.
        Pickle-free: numeric arrays plus one JSON string.
        """
        meta = {
            "schema": MODEL_SCHEMA,
            "nranks": self.nranks,
            "scheme": self.scheme,
            "strategy": self.strategy,
            "comm_plan": self.comm_plan_kind,
            "ranks_per_node": self.ranks_per_node,
            "fingerprint": list(self.fingerprint),
        }
        out = Path(path)
        with open(out, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                **{
                    "matrix.row_ptr": self.matrix.row_ptr,
                    "matrix.col_idx": self.matrix.col_idx,
                    "matrix.val": self.matrix.val,
                },
            )
        return out

    @classmethod
    def load(cls, path: str | Path) -> "BuiltModel":
        """Read a file written by :meth:`save`, verify it, and build.

        The file is outside input, so every guard is a ``ValueError``
        that starts with the path: the npz entries and the schema tag;
        the required ``meta`` keys; a ``kernel`` key left by an older
        writer (files used to name the kernel that computed their
        results — ``csr/reference``, the one there is, loads; anything
        else was a different result class and is refused); ``val`` as
        long as ``col_idx`` (the structure fingerprint does not cover
        values); and the matrix structure fingerprint, recomputed and
        compared against the stored one, so a truncated or corrupted
        file fails here, not in a kernel.  Then :func:`build_model` —
        the same constructor, so a loaded model serves bit-identically.
        """
        path = Path(path)
        with np.load(path) as data:
            missing = [name for name in ("meta", *_ARRAYS) if name not in data.files]
            if missing:
                raise ValueError(f"{path}: not a {MODEL_SCHEMA} file, it lacks {missing}")
            meta = json.loads(str(data["meta"][()]))
            if meta.get("schema") != MODEL_SCHEMA:
                raise ValueError(
                    f"{path}: expected schema {MODEL_SCHEMA!r}, "
                    f"got {meta.get('schema')!r}"
                )
            row_ptr, col_idx, val = (data[name] for name in _ARRAYS)
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"{path}: meta lacks the required key(s) {missing}")
        if meta.get("kernel", "csr/reference") != "csr/reference":
            raise ValueError(
                f"{path}: meta key 'kernel' names {meta['kernel']!r}; only "
                f"'csr/reference' exists, and a model built on another kernel "
                f"served a different result class — rebuild it with build_model"
            )
        if val.shape != col_idx.shape:
            raise ValueError(
                f"{path}: matrix.val has shape {val.shape} but matrix.col_idx "
                f"{col_idx.shape}; the file is truncated or was edited after save"
            )
        A = CSRMatrix(row_ptr, col_idx, val, check=False)
        stored_fp = tuple(meta["fingerprint"])
        actual_fp = A.structure_fingerprint()
        if actual_fp != stored_fp:
            raise ValueError(
                f"{path}: matrix structure fingerprint mismatch "
                f"(stored {stored_fp}, recomputed {actual_fp}); the "
                f"file is corrupt or was edited after save"
            )
        # the matrix object is new, so the process-wide plan cache cannot hit
        return build_model(
            A,
            int(meta["nranks"]),
            scheme=str(meta["scheme"]),
            comm_plan=str(meta["comm_plan"]),
            ranks_per_node=int(meta["ranks_per_node"]),
            strategy=str(meta["strategy"]),
            reuse_caches=False,
        )


def build_model(
    A: CSRMatrix,
    nranks: int,
    *,
    scheme: str = "task_mode",
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    strategy: str = "nnz",
    reuse_caches: bool = True,
) -> BuiltModel:
    """Do all one-time bookkeeping for serving ``A`` on *nranks* ranks.

    Partition, halo plan (with sub-matrices) and optional node-aware
    comm plan — the full cold-start cost, paid here and never again
    (the sweep program is the engine's, compiled once per process).
    ``reuse_caches`` lets the build share the process-wide halo-plan
    cache (the default); benchmarks pass ``False`` to measure a
    genuinely cold build.
    """
    from repro.core.spmvm import lower_comm_plan

    check_in(comm_plan, PLAN_KINDS, "comm_plan")
    t0 = time.perf_counter()
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    if reuse_caches:
        plan = cached_halo_plan(A, nranks, strategy=strategy, with_matrices=True)
    else:
        plan = build_halo_plan(
            A, partition_matrix(A, nranks, strategy=strategy), with_matrices=True
        )
    cplan = lower_comm_plan(plan, plan.nranks, comm_plan, ranks_per_node)
    return BuiltModel(
        matrix=A,
        plan=plan,
        scheme=scheme,
        strategy=strategy,
        comm_plan_kind=comm_plan,
        ranks_per_node=ranks_per_node,
        comm_plan=cplan,
        fingerprint=A.structure_fingerprint(),
        build_seconds=time.perf_counter() - t0,
    )
