"""The ``repro serve`` request-stream driver.

Builds a model once, optionally round-trips it through the
``repro-model/2`` file format, stands up a :class:`SolverService`, and
fires a stream of right-hand-side requests at it from concurrent
submitters (the ranks of one :func:`~repro.mpilite.world.run_spmd`
call) — the serving analogue of the bench harness's sweep loops.
Reports build cost, latency percentiles
(:func:`repro.obs.latency_summary`), throughput, coalesced batch
widths, and verifies a sample of responses bit-for-bit against
independent :func:`~repro.core.spmvm.distributed_spmv` runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mpilite.world import run_spmd
from repro.obs.latency import latency_summary, throughput
from repro.serve.model import BuiltModel, build_model
from repro.serve.service import SolverService
from repro.sparse.csr import CSRMatrix

__all__ = ["StreamReport", "run_request_stream"]


@dataclass
class StreamReport:
    """What one request-stream run measured."""

    matrix_label: str
    nrows: int
    nnz: int
    nranks: int
    scheme: str
    requests: int
    concurrency: int
    max_batch: int
    build_seconds: float
    wall_seconds: float
    latencies: tuple[float, ...]
    batch_widths: tuple[int, ...]
    verified: int
    model_path: str | None = None
    extras: dict = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        """Flat metrics: latency percentiles + throughput + batch shape."""
        out = latency_summary(self.latencies)
        out["throughput_rps"] = throughput(len(self.latencies), self.wall_seconds)
        out["build_seconds"] = self.build_seconds
        out["batches"] = float(len(self.batch_widths))
        if self.batch_widths:
            out["mean_batch_width"] = sum(self.batch_widths) / len(self.batch_widths)
            out["max_batch_width"] = float(max(self.batch_widths))
        return out

    def render(self) -> str:
        """Human-readable report block."""
        s = self.summary()
        ms = 1e3
        lines = [
            f"repro serve: {self.matrix_label} ({self.nrows} rows, "
            f"nnz={self.nnz}) on {self.nranks} ranks",
            f"  scheme              : {self.scheme}",
            f"  one-time build      : {self.build_seconds * ms:8.2f} ms"
            + (f"  (round-tripped via {self.model_path})" if self.model_path else ""),
            f"  requests            : {self.requests} over {self.concurrency} "
            f"submitter(s), max batch {self.max_batch} column(s)",
            f"  coalesced batches   : {len(self.batch_widths)} "
            f"(mean width {s.get('mean_batch_width', 0):.2f}, "
            f"max {int(s.get('max_batch_width', 0))})",
            f"  latency             : p50 {s['p50'] * ms:.3f} ms | "
            f"p90 {s['p90'] * ms:.3f} ms | p99 {s['p99'] * ms:.3f} ms | "
            f"max {s['max'] * ms:.3f} ms",
            f"  throughput          : {s['throughput_rps']:8.1f} requests/s",
        ]
        if self.verified:
            lines.append(
                f"  verified            : {self.verified}/{self.verified} "
                f"response(s) bit-identical to independent distributed spMVM runs"
            )
        return "\n".join(lines)


def run_request_stream(
    A: CSRMatrix,
    nranks: int = 4,
    *,
    scheme: str = "task_mode",
    comm_plan: str = "direct",
    ranks_per_node: int = 1,
    requests: int = 64,
    concurrency: int = 8,
    max_batch: int = 8,
    seed: int = 7,
    verify: int = 4,
    model_path: str | Path | None = None,
    matrix_label: str = "matrix",
) -> StreamReport:
    """Serve *requests* random RHS vectors and measure the stream.

    ``concurrency`` submitters each run their share of the stream
    synchronously (submit, then gather), so in-flight pressure equals
    the submitter count and the service's coalescing is exercised for
    real; a submitter's failure is re-raised as ``run_spmd`` raises it.
    ``model_path`` additionally round-trips the built model through
    :meth:`BuiltModel.save`/:meth:`BuiltModel.load` before serving —
    the serialize→deserialize→serve path.  ``verify`` responses are
    recomputed with independent per-request
    :func:`~repro.core.spmvm.distributed_spmv` runs and compared
    bit-for-bit.
    """
    from repro.core.spmvm import distributed_spmv

    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    concurrency = max(1, min(concurrency, requests))
    t0 = time.perf_counter()
    model = build_model(
        A,
        nranks,
        scheme=scheme,
        comm_plan=comm_plan,
        ranks_per_node=ranks_per_node,
    )
    if model_path is not None:
        saved = model.save(model_path)
        model = BuiltModel.load(saved)
    build_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((requests, A.ncols))
    results: list[np.ndarray | None] = [None] * requests
    latencies: list[float] = [0.0] * requests

    with SolverService(model, max_batch=max_batch, name="serve-driver") as service:

        def submitter(comm) -> None:
            for i in range(comm.rank, requests, concurrency):
                t = time.perf_counter()
                results[i] = service.solve(X[i])
                latencies[i] = time.perf_counter() - t

        t1 = time.perf_counter()
        run_spmd(concurrency, submitter)
        wall = time.perf_counter() - t1
        stats = service.stats

    verified = 0
    for i in range(min(verify, requests)):
        y_ref = distributed_spmv(
            A, X[i], nranks, scheme=scheme, comm_plan=comm_plan,
            ranks_per_node=ranks_per_node,
        )
        if not np.array_equal(results[i], y_ref):
            raise AssertionError(
                f"response {i} is not bit-identical to an independent distributed spMVM"
            )
        verified += 1

    return StreamReport(
        matrix_label=matrix_label,
        nrows=A.nrows,
        nnz=A.nnz,
        nranks=nranks,
        scheme=scheme,
        requests=requests,
        concurrency=concurrency,
        max_batch=max_batch,
        build_seconds=build_seconds,
        wall_seconds=wall,
        latencies=tuple(latencies),
        batch_widths=stats["batch_widths"],
        verified=verified,
        model_path=str(model_path) if model_path is not None else None,
    )
