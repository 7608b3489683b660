"""BuiltModel: the build-once artifact of the solver service.

"The necessary bookkeeping needs to be done only once" (paper
Sect. 3.1) — a :class:`BuiltModel` is that bookkeeping made a first-
class, serializable object: the partitioned matrix, the halo plan with
its per-rank local/remote sub-matrices, the (optional) node-aware
communication plan, the compiled sweep program, and the resolved kernel
spec with its format-converted operators.  Build it once with
:func:`build_model`, persist it with :meth:`BuiltModel.save`
(``repro-model/1``, a plain ``.npz``: numeric arrays plus one JSON
metadata entry — no pickle), reload it with :meth:`BuiltModel.load`,
and hand it to a :class:`~repro.serve.service.SolverService` to serve
requests against.

:func:`cached_model` memoises built models per process, keyed on matrix
identity *plus* its structure fingerprint — the same staleness guard as
:func:`repro.core.halo.cached_halo_plan`, so a matrix mutated in place
between requests gets a rebuilt model, never a stale one.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.plan import PLAN_KINDS, CommPlan
from repro.core.halo import HaloPlan, RankHalo, build_halo_plan, cached_halo_plan
from repro.program.build import cached_sweep_program
from repro.program.ir import SweepProgram
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import RowPartition, partition_matrix
from repro.sparse.registry import (
    DEFAULT_KERNEL,
    KernelSpec,
    available_kernels,
    build_operator,
    get_kernel,
)
from repro.util import check_in

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spmvm import DistributedSpMVM
    from repro.mpilite.comm import Comm

__all__ = ["MODEL_SCHEMA", "BuiltModel", "build_model", "cached_model", "load_model"]

#: Version tag of the on-disk layout.  Bump only on breaking changes.
MODEL_SCHEMA = "repro-model/1"


@dataclass
class BuiltModel:
    """Everything a solver service needs, built exactly once.

    ``fingerprint`` is the matrix's structure fingerprint at build time;
    serving and (de)serialization verify it so a model can never be
    applied to a matrix whose sparsity silently changed underneath it.
    ``build_seconds`` records what the build cost — the amortised
    quantity every warm request saves.
    """

    matrix: CSRMatrix
    plan: HaloPlan
    kernel: KernelSpec
    scheme: str
    strategy: str
    comm_plan_kind: str
    ranks_per_node: int
    comm_plan: CommPlan | None
    program: SweepProgram
    fingerprint: tuple
    build_seconds: float = 0.0

    @property
    def nranks(self) -> int:
        """Ranks of the worker pool this model was built for."""
        return self.plan.nranks

    def engine(self, comm: "Comm", *, sanitizer=None) -> "DistributedSpMVM":
        """The per-rank engine of ``comm.rank``, on this model's state.

        Construction is cheap by design: the halo plan, sub-matrices,
        comm plan, program and converted kernel operators already exist;
        the engine only allocates its per-rank sweep buffers.
        ``sanitizer`` attaches a thread sanitizer to the engine's sweeps
        (:mod:`repro.check.threads`); ``None`` costs nothing.
        """
        from repro.core.spmvm import DistributedSpMVM

        return DistributedSpMVM(
            comm,
            self.plan.ranks[comm.rank],
            comm_plan=self.comm_plan,
            kernel=self.kernel,
            sanitizer=sanitizer,
        )

    def describe(self) -> str:
        """One line: shape, ranks, scheme, comm plan, kernel."""
        return (
            f"BuiltModel({self.matrix.nrows} rows, nnz={self.matrix.nnz}, "
            f"{self.nranks} ranks, scheme={self.scheme}, "
            f"comm_plan={self.comm_plan_kind}, kernel={self.kernel.key}, "
            f"built in {self.build_seconds * 1e3:.1f} ms)"
        )

    # ------------------------------------------------------------------
    # serialization (repro-model/1)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the built model to *path* (``.npz``, schema
        ``repro-model/1``) and return the path written.

        Stores every array the build produced — matrix, partition, and
        per-rank halo bookkeeping *including* the split local/remote
        sub-matrices — so :meth:`load` restores a served model without
        redoing any bookkeeping.  Pickle-free: numeric arrays plus one
        JSON string.
        """
        arrays: dict[str, np.ndarray] = {
            "matrix.row_ptr": self.matrix.row_ptr,
            "matrix.col_idx": self.matrix.col_idx,
            "matrix.val": self.matrix.val,
            "partition.offsets": self.plan.partition.offsets,
        }
        rank_meta = []
        for rh in self.plan.ranks:
            p = rh.rank
            arrays[f"rank{p}.recv_from"] = np.asarray(rh.recv_from, dtype=np.int64).reshape(-1, 2)
            arrays[f"rank{p}.send_to"] = np.asarray(rh.send_to, dtype=np.int64).reshape(-1, 2)
            arrays[f"rank{p}.halo_columns"] = (
                rh.halo_columns if rh.halo_columns is not None else np.zeros(0, dtype=np.int64)
            )
            for q, idx in rh.send_indices.items():
                arrays[f"rank{p}.send_idx.{q}"] = idx
            for part, sub in (("local", rh.A_local), ("remote", rh.A_remote)):
                arrays[f"rank{p}.{part}.row_ptr"] = sub.row_ptr
                arrays[f"rank{p}.{part}.col_idx"] = sub.col_idx
                arrays[f"rank{p}.{part}.val"] = sub.val
            rank_meta.append(
                {
                    "rank": p,
                    "row_lo": rh.row_lo,
                    "row_hi": rh.row_hi,
                    "nnz_local": rh.nnz_local,
                    "nnz_remote": rh.nnz_remote,
                    "send_dsts": sorted(rh.send_indices),
                    "local_ncols": rh.A_local.ncols,
                    "remote_ncols": rh.A_remote.ncols,
                }
            )
        meta = {
            "schema": MODEL_SCHEMA,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "scheme": self.scheme,
            "strategy": self.strategy,
            "kernel": self.kernel.key,
            "comm_plan": self.comm_plan_kind,
            "ranks_per_node": self.ranks_per_node,
            "nranks": self.nranks,
            "ncols": self.matrix.ncols,
            "fingerprint": list(self.fingerprint),
            "program_signature": list(self.program.signature()),
            "ranks": rank_meta,
        }
        out = Path(path)
        with open(out, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        return out

    @classmethod
    def load(cls, path: str | Path) -> "BuiltModel":
        """Reload a model written by :meth:`save`, verifying integrity.

        Three guards, each with a descriptive error: the schema tag, the
        matrix structure fingerprint (recomputed and compared against
        the stored one — truncated or corrupted files fail here, not in
        a kernel), and the kernel key (which must be registered in *this*
        process; runtime-registered kernels must be re-registered before
        loading models built on them).
        """
        t0 = time.perf_counter()
        path = Path(path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta.get("schema") != MODEL_SCHEMA:
                raise ValueError(
                    f"{path}: expected schema {MODEL_SCHEMA!r}, "
                    f"got {meta.get('schema')!r}"
                )
            A = CSRMatrix(
                data["matrix.row_ptr"],
                data["matrix.col_idx"],
                data["matrix.val"],
                ncols=int(meta["ncols"]),
                check=False,
            )
            stored_fp = tuple(meta["fingerprint"])
            actual_fp = A.structure_fingerprint()
            if actual_fp != stored_fp:
                raise ValueError(
                    f"{path}: matrix structure fingerprint mismatch "
                    f"(stored {stored_fp}, recomputed {actual_fp}); the "
                    f"file is corrupt or was edited after save"
                )
            try:
                kernel = get_kernel(meta["kernel"])
            except ValueError as exc:
                raise ValueError(
                    f"{path}: model was built with kernel {meta['kernel']!r}, "
                    f"which is not registered in this process (available: "
                    f"{available_kernels()}); register it before loading"
                ) from exc
            partition = RowPartition(data["partition.offsets"])
            ranks = []
            for rm in meta["ranks"]:
                p = int(rm["rank"])
                subs = {}
                for part in ("local", "remote"):
                    subs[part] = CSRMatrix(
                        data[f"rank{p}.{part}.row_ptr"],
                        data[f"rank{p}.{part}.col_idx"],
                        data[f"rank{p}.{part}.val"],
                        ncols=int(rm[f"{part}_ncols"]),
                        check=False,
                    )
                ranks.append(
                    RankHalo(
                        rank=p,
                        row_lo=int(rm["row_lo"]),
                        row_hi=int(rm["row_hi"]),
                        nnz_local=int(rm["nnz_local"]),
                        nnz_remote=int(rm["nnz_remote"]),
                        recv_from=[(int(q), int(c)) for q, c in data[f"rank{p}.recv_from"]],
                        send_to=[(int(q), int(c)) for q, c in data[f"rank{p}.send_to"]],
                        halo_columns=data[f"rank{p}.halo_columns"],
                        send_indices={
                            int(q): data[f"rank{p}.send_idx.{q}"] for q in rm["send_dsts"]
                        },
                        A_local=subs["local"],
                        A_remote=subs["remote"],
                    )
                )
        plan = HaloPlan(partition=partition, nrows=A.nrows, nnz=A.nnz, ranks=ranks)
        model = _assemble(
            A,
            plan,
            kernel,
            scheme=str(meta["scheme"]),
            strategy=str(meta["strategy"]),
            comm_plan=str(meta["comm_plan"]),
            ranks_per_node=int(meta["ranks_per_node"]),
        )
        stored_sig = tuple(meta["program_signature"])
        if model.program.signature() != stored_sig:
            raise ValueError(
                f"{path}: compiled sweep program signature drifted (stored "
                f"{stored_sig}, built {model.program.signature()}); the "
                f"model predates an IR vocabulary change — rebuild it"
            )
        model.build_seconds = time.perf_counter() - t0
        return model


def _assemble(
    A: CSRMatrix,
    plan: HaloPlan,
    kernel: KernelSpec,
    *,
    scheme: str,
    strategy: str,
    comm_plan: str,
    ranks_per_node: int,
) -> BuiltModel:
    """Shared tail of build/load: comm plan, program, operators, model."""
    from repro.core.spmvm import SCHEMES, lower_comm_plan

    check_in(scheme, SCHEMES, "scheme")
    cplan = lower_comm_plan(plan, plan.nranks, comm_plan, ranks_per_node)
    program = cached_sweep_program(scheme)
    # pay format conversion now, not on first request
    for rh in plan.ranks:
        build_operator(kernel, rh.A_local)
        build_operator(kernel, rh.A_remote)
    return BuiltModel(
        matrix=A,
        plan=plan,
        kernel=kernel,
        scheme=scheme,
        strategy=strategy,
        comm_plan_kind=comm_plan,
        ranks_per_node=ranks_per_node,
        comm_plan=cplan,
        program=program,
        fingerprint=A.structure_fingerprint(),
    )


def build_model(
    A: CSRMatrix,
    nranks: int,
    *,
    scheme: str = "task_mode",
    kernel: str | KernelSpec = DEFAULT_KERNEL,
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    strategy: str = "nnz",
    reuse_caches: bool = True,
) -> BuiltModel:
    """Do all one-time bookkeeping for serving ``A`` on *nranks* ranks.

    Partition, halo plan (with sub-matrices), optional node-aware comm
    plan, compiled sweep program, and kernel-format conversion — the
    full cold-start cost, paid here and never again.  ``reuse_caches``
    lets the build share the process-wide halo-plan cache (the default);
    benchmarks pass ``False`` to measure a genuinely cold build.
    """
    check_in(comm_plan, PLAN_KINDS, "comm_plan")
    t0 = time.perf_counter()
    kspec = get_kernel(kernel)
    if reuse_caches:
        plan = cached_halo_plan(A, nranks, strategy=strategy, with_matrices=True)
    else:
        plan = build_halo_plan(
            A, partition_matrix(A, nranks, strategy=strategy), with_matrices=True
        )
    model = _assemble(
        A,
        plan,
        kspec,
        scheme=scheme,
        strategy=strategy,
        comm_plan=comm_plan,
        ranks_per_node=ranks_per_node,
    )
    model.build_seconds = time.perf_counter() - t0
    return model


def load_model(path: str | Path) -> BuiltModel:
    """Module-level alias of :meth:`BuiltModel.load`."""
    return BuiltModel.load(path)


# ----------------------------------------------------------------------
# model cache: one BuiltModel per (matrix, serving configuration),
# fingerprint-guarded exactly like repro.core.halo's plan cache
# ----------------------------------------------------------------------
_MODEL_CACHE: dict[tuple, tuple[weakref.ref, tuple, BuiltModel]] = {}
_MODEL_CACHE_MAX = 8


def cached_model(
    A: CSRMatrix,
    nranks: int,
    *,
    scheme: str = "task_mode",
    kernel: str | KernelSpec = DEFAULT_KERNEL,
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    strategy: str = "nnz",
) -> BuiltModel:
    """Build (or reuse) the model for this serving configuration.

    Keyed on matrix identity + kernel + scheme + comm plan; each hit
    re-verifies the matrix's structure fingerprint, so mutating the
    matrix in place rebuilds the model instead of serving a stale one.
    """
    kspec = get_kernel(kernel)
    key = (id(A), int(nranks), scheme, kspec.key, comm_plan, int(ranks_per_node), strategy)
    fingerprint = A.structure_fingerprint()
    hit = _MODEL_CACHE.get(key)
    if hit is not None and hit[0]() is A and hit[1] == fingerprint:
        return hit[2]
    model = build_model(
        A,
        nranks,
        scheme=scheme,
        kernel=kspec,
        comm_plan=comm_plan,
        ranks_per_node=ranks_per_node,
        strategy=strategy,
    )
    dead = [k for k, (ref, _fp, _m) in _MODEL_CACHE.items() if ref() is None]
    for k in dead:
        del _MODEL_CACHE[k]
    if key not in _MODEL_CACHE:
        while len(_MODEL_CACHE) >= _MODEL_CACHE_MAX:
            del _MODEL_CACHE[next(iter(_MODEL_CACHE))]
    _MODEL_CACHE[key] = (weakref.ref(A), fingerprint, model)
    return model
