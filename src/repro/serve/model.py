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
from repro.sparse.partition import partition_nnz_balanced
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
_META_KEYS = ("nranks", "scheme", "comm_plan", "ranks_per_node", "fingerprint")


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
    comm_plan_kind: str
    ranks_per_node: int
    comm_plan: CommPlan | None
    fingerprint: tuple
    build_seconds: float = 0.0

    @property
    def nranks(self) -> int:
        """Ranks of the worker pool this model was built for."""
        return self.plan.nranks

    def engine(self, comm: "Comm") -> "DistributedSpMVM":
        """The per-rank engine of ``comm.rank``, on this model's state.

        Construction is cheap by design: the halo plan, sub-matrices
        and comm plan already exist; the engine only allocates its
        per-rank sweep buffers.  The caller owns the engine and
        closes it (under task mode it parks a communication thread from
        its first sweep on).  It is observed when *comm*'s world is.
        """
        from repro.core.spmvm import DistributedSpMVM

        return DistributedSpMVM(comm, self.plan.ranks[comm.rank], comm_plan=self.comm_plan)

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
        that starts with the path: the npz entries, JSON ``meta`` and
        the schema tag; the required ``meta`` keys and the type and
        range of each value (:func:`_check_meta`), before anything is
        built from them; ``val`` as long as ``col_idx`` (the structure
        fingerprint does not cover values); the matrix structure
        fingerprint, recomputed and compared against the stored one, so
        a truncated or corrupted file fails here, not in a kernel; and
        ``nranks`` no larger than the row count.  Then
        :func:`build_model` — the same constructor, so a loaded model
        serves bit-identically.
        """
        path = Path(path)
        with np.load(path) as data:
            missing = [name for name in ("meta", *_ARRAYS) if name not in data.files]
            if missing:
                raise ValueError(f"{path}: not a {MODEL_SCHEMA} file, it lacks {missing}")
            try:
                meta = json.loads(str(data["meta"][()]))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: meta is not JSON ({exc})") from None
            schema = meta.get("schema") if isinstance(meta, dict) else None
            if schema != MODEL_SCHEMA:
                raise ValueError(f"{path}: expected schema {MODEL_SCHEMA!r}, got {schema!r}")
            row_ptr, col_idx, val = (data[name] for name in _ARRAYS)
        _check_meta(path, meta)
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
        if meta["nranks"] > A.nrows:
            raise ValueError(
                f"{path}: meta key 'nranks' is {meta['nranks']}, more ranks than the "
                f"matrix has rows ({A.nrows})"
            )
        # the matrix object is new, so the process-wide plan cache cannot hit
        return build_model(
            A,
            meta["nranks"],
            scheme=meta["scheme"],
            comm_plan=meta["comm_plan"],
            ranks_per_node=meta["ranks_per_node"],
            reuse_caches=False,
        )


def _check_meta(path: Path, meta: dict) -> None:
    """Refuse, naming *path*, any ``meta`` value :func:`build_model` must
    not see: a missing key, a count that is not an integer >= 1, a name
    outside its set, a fingerprint that is not five integers, or a key
    left by an older writer that names something this code does not do
    (``kernel``: only ``csr/reference`` exists; ``strategy``: the real
    backend partitions by balanced nonzeros only, the paper's footnote 2).
    """
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{path}: meta lacks the required key(s) {missing}")

    for key, only in (("kernel", "csr/reference"), ("strategy", "nnz")):
        if meta.get(key, only) != only:
            raise ValueError(
                f"{path}: meta key {key!r} names {meta[key]!r}; only {only!r} exists, "
                f"and a model built otherwise served a different result — rebuild it "
                f"with build_model"
            )

    def refuse(key: str, want: str) -> ValueError:
        return ValueError(f"{path}: meta key {key!r} is {meta[key]!r}; {want}")

    for key in ("nranks", "ranks_per_node"):
        if type(meta[key]) is not int or meta[key] < 1:
            raise refuse(key, "expected an integer >= 1")
    for key, names in (("scheme", PROGRAM_SCHEMES), ("comm_plan", PLAN_KINDS)):
        if meta[key] not in names:
            raise refuse(key, f"expected one of {list(names)}")
    fp = meta["fingerprint"]
    if not (isinstance(fp, list) and len(fp) == 5 and all(type(v) is int for v in fp)):
        raise refuse("fingerprint", "expected a list of five integers")


def build_model(
    A: CSRMatrix,
    nranks: int,
    *,
    scheme: str = "task_mode",
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    reuse_caches: bool = True,
) -> BuiltModel:
    """Do all one-time bookkeeping for serving ``A`` on *nranks* ranks.

    Partition (balanced nonzeros, the paper's footnote 2), halo plan
    (with sub-matrices) and optional node-aware
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
        plan = cached_halo_plan(A, nranks, with_matrices=True)
    else:
        plan = build_halo_plan(A, partition_nnz_balanced(A, nranks), with_matrices=True)
    cplan = lower_comm_plan(plan, plan.nranks, comm_plan, ranks_per_node)
    return BuiltModel(
        matrix=A,
        plan=plan,
        scheme=scheme,
        comm_plan_kind=comm_plan,
        ranks_per_node=ranks_per_node,
        comm_plan=cplan,
        fingerprint=A.structure_fingerprint(),
        build_seconds=time.perf_counter() - t0,
    )
