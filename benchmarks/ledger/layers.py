"""Per-layer probes and the traced pass.

Layers are this repo's modules (matrices, model, sparse, core, program,
mpilite, comm, serve, solvers, frame+smpi+machine) plus ``ledger``, the
depth differences that say where a sweep's, a call's and a request's
time goes.  Every layer is measured from outside, through public
functions; the README has the glossary and, for each metric, the
end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from endtoend import EndToEnd, close_to, run_solver
from estimator import Phase
from spans import Recorder
from workloads import (
    MAX_BATCH,
    NRANKS,
    SCHEME_LABEL,
    SCHEMES,
    SIM_KAPPA,
    SIM_POINT_NODES,
    Workload,
)

from repro.comm import plan_stats
from repro.core import (
    DistributedSpMVM,
    build_halo_plan,
    gather_vector,
    scatter_vector,
    simulate_spmvm,
)
from repro.core.spmvm import lower_comm_plan
from repro.machine.affinity import ranks_for_mode
from repro.machine.presets import westmere_cluster
from repro.model import (
    code_balance_block,
    code_balance_block_split,
    measure_host_triad,
)
from repro.mpilite import PerRank, run_spmd, run_spmd_processes
from repro.obs.latency import percentile
from repro.program import build_sweep, execute_sweep
from repro.serve import BuiltModel
from repro.solvers import SerialOperator
from repro.sparse import CSRMatrix, partition_matrix, spmm, spmm_add, spmv, spmv_add

#: Metrics that are counts of the program or the plan: two runs with the
#: same seed must report them identically (``compare.py`` checks).
COUNTS = (
    "core.halo_bytes",
    "core.halo_fraction",
    "core.messages_per_sweep",
    "core.peers_max",
    "core.nnz_imbalance",
    "program.ops_per_sweep_vector",
    "program.ops_per_sweep_naive",
    "program.ops_per_sweep_task",
    "comm.plan_messages",
    "comm.plan_bytes",
    "serve.model_bytes",
    "solvers.iterations",
    "solvers.exchanges",
    "solvers.reductions",
    "solvers.messages",
    f"sim.messages_per_mvm_{SIM_POINT_NODES}n",
    f"sim.comm_bytes_per_mvm_{SIM_POINT_NODES}n",
    f"sim.gflops_vector_{SIM_POINT_NODES}n",
    f"sim.gflops_naive_{SIM_POINT_NODES}n",
    f"sim.gflops_task_{SIM_POINT_NODES}n",
)

_TAG = 11
_ROUNDS = 3


def timed(fn, *, rounds: int = _ROUNDS, n: int = 5, scale: float = 1e3) -> float:
    """Best round median of ``fn()``'s wall time (ms unless *scale* says otherwise)."""
    phase = Phase("probe", "")
    for rnd in range(rounds):
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            phase.add(rnd, (time.perf_counter() - t0) * scale)
    return phase.value


def sweep_count(seconds_per_sweep: float) -> int:
    """Sweeps per round so that a round lasts about 0.1 s (3 to 20)."""
    return int(min(20, max(3, 0.1 / max(seconds_per_sweep, 1e-6))))


def halo_free_twin(A: CSRMatrix, plan) -> CSRMatrix:
    """*A* with every entry outside its rank's diagonal block dropped, so
    the same program runs on the same partition with zero-byte halos."""
    ptrs, cols, vals = [np.zeros(1, dtype=np.int64)], [], []
    for halo in plan.ranks:
        local = halo.A_local
        ptrs.append(local.row_ptr[1:] + ptrs[-1][-1])
        cols.append(local.col_idx + halo.row_lo)
        vals.append(local.val)
    return CSRMatrix(
        np.concatenate(ptrs), np.concatenate(cols), np.concatenate(vals), ncols=A.ncols
    )


def llc_bytes() -> int:
    """Largest cache of cpu0 as the kernel reports it (0 if unknown)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * factor)
    return best


# ----------------------------------------------------------------------
# SPMD rank functions (module level: the process backend pickles them)
# ----------------------------------------------------------------------
def _noop_rank(comm):
    return None


def _collectives_rank(comm, n):
    """Per-op seconds of barrier, scalar / 8-vector allreduce, 8-byte ping-pong."""
    out = {}
    vec = np.ones(8)
    probes = {
        "barrier": comm.barrier,
        "allreduce": lambda: comm.allreduce(1.0),
        "allreduce_vec": lambda: comm.allreduce(vec),
    }
    for name, call in probes.items():
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        out[name] = (time.perf_counter() - t0) / n
    out["pingpong"] = _pingpong_rank(comm, n)
    return out


def _pingpong_rank(comm, n):
    buf = np.zeros(1)
    peer = 1 - comm.rank
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(n):
        if comm.rank == 0:
            comm.isend(buf, peer, _TAG)
            comm.irecv(peer, _TAG).wait()
        else:
            comm.isend(comm.irecv(peer, _TAG).wait(), peer, _TAG)
    return (time.perf_counter() - t0) / n


def _exchange_rank(comm, send_to, recv_from, k, n, ordered=False):
    """The plan's real message sizes through irecv/isend/waitall, no compute.

    ``ordered`` makes odd ranks receive before they send.  The process
    backend needs it: its ``isend`` is a blocking pipe write, so two
    ranks sending each other more than the pipe buffer (64 kB) at once
    deadlock (README, "Findings").
    """
    bufs = {dst: np.zeros((count, k)) for dst, count in send_to}
    times = []
    for _ in range(n):
        comm.barrier()
        t0 = time.perf_counter()
        recvs = [comm.irecv(src, _TAG) for src, _count in recv_from]
        if ordered and comm.rank % 2:
            comm.waitall(recvs)
            recvs = []
        for dst, buf in bufs.items():
            comm.isend(buf, dst, _TAG)
        comm.waitall(recvs)
        comm.barrier()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _engine_rank(comm, halo, x, comm_plan, scheme, n):
    """Engine construction time, op count and *n* barrier-fenced sweeps."""
    t0 = time.perf_counter()
    engine = DistributedSpMVM(comm, halo, comm_plan=comm_plan)
    init = time.perf_counter() - t0
    multiply = engine.multiply if x.ndim == 1 else engine.multiply_block
    x_local = x[halo.row_lo : halo.row_hi].copy()
    op_log: list[str] = []
    y = multiply(x_local, scheme, op_log=op_log)
    times = []
    for _ in range(n):
        comm.barrier()
        t0 = time.perf_counter()
        multiply(x_local, scheme)
        comm.barrier()
        times.append(time.perf_counter() - t0)
    return {"init": init, "ops": len(op_log), "times": times, "y": y}


def _dispatch_rank(comm, halo, x, n):
    """1-rank ``execute_sweep`` against the same kernels called directly."""
    engine = DistributedSpMVM(comm, halo)
    kernel, program = engine.kernel, engine.program("task_mode")
    block = x.ndim == 2
    full, add = (kernel.spmm, kernel.spmm_add) if block else (kernel.spmv, kernel.spmv_add)
    halo_out, _send = engine.sweep_buffers(x)
    swept, direct = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        execute_sweep(engine, program, x)
        t1 = time.perf_counter()
        y = full(engine.A_local_op, x)
        add(engine.A_remote_op, engine.halo_view(halo_out), out=y)
        t2 = time.perf_counter()
        swept.append(t1 - t0)
        direct.append(t2 - t1)
    return statistics.median(swept), statistics.median(direct)


STEPPED_SPANS = (
    "mpilite.post_recvs",
    "core.pack",
    "mpilite.post_sends",
    "sparse.local_kernel",
    "mpilite.wait",
    "sparse.remote_kernel",
    "mpilite.barrier_wait",
)


def stepped_sweep(engine, x_local, rec: Recorder, parent=None, **ids) -> np.ndarray:
    """One sweep through the engine's public phase methods in
    ``naive_overlap`` order, a span around each, closing barrier included."""
    kernel, comm = engine.kernel, engine.comm
    block = x_local.ndim == 2
    halo_out, send_bufs = engine.sweep_buffers(x_local)
    with rec.span("ledger.stepped_sweep", parent=parent, **ids):
        with rec.span("mpilite.post_recvs", **ids):
            recvs = engine.post_halo_receives()
        with rec.span("core.pack", **ids):
            engine.fill_send_buffers(x_local, send_bufs)
        with rec.span("mpilite.post_sends", **ids):
            engine.send_buffers(send_bufs)
        with rec.span("sparse.local_kernel", **ids):
            y = (kernel.spmm if block else kernel.spmv)(engine.A_local_op, x_local)
        with rec.span("mpilite.wait", **ids):
            engine.complete_halo_receives(recvs, halo_out)
        with rec.span("sparse.remote_kernel", **ids):
            (kernel.spmm_add if block else kernel.spmv_add)(
                engine.A_remote_op, engine.halo_view(halo_out), out=y
            )
        with rec.span("mpilite.barrier_wait", **ids):
            comm.barrier()
    rec.count("ledger.stepped_sweeps")
    rec.count("mpilite.messages_sent", len(send_bufs))
    rec.count("mpilite.bytes_sent", sum(buf.nbytes for buf in send_bufs.values()))
    return y


def _stepped_rank(comm, halo, x, n, rec, parent, rnd):
    """*n* stepped sweeps, each followed by a plain naive_overlap sweep
    timed the same way (rank 0's clock, barrier to barrier)."""
    engine = DistributedSpMVM(comm, halo)
    multiply = engine.multiply if x.ndim == 1 else engine.multiply_block
    x_local = x[halo.row_lo : halo.row_hi].copy()
    expect = multiply(x_local, "naive_overlap")
    identical, naive = True, []
    for i in range(n):
        comm.barrier()
        y = stepped_sweep(engine, x_local, rec, parent=parent, rank=comm.rank, sweep=i, round=rnd)
        identical = identical and bool(np.array_equal(y, expect))
        comm.barrier()
        t0 = time.perf_counter()
        multiply(x_local, "naive_overlap")
        comm.barrier()
        naive.append(time.perf_counter() - t0)
    return identical, naive


def procs_probe(plan, k: int) -> dict[str, tuple[float, str]]:
    """Ping-pong and halo exchange on the process backend.  Forks, so the
    worker calls it before this process starts any thread."""
    sizes = PerRank([h.send_to for h in plan.ranks])
    sources = PerRank([h.recv_from for h in plan.ranks])
    pingpong = run_spmd_processes(NRANKS, _pingpong_rank, 200)[0]
    exchange = run_spmd_processes(NRANKS, _exchange_rank, sizes, sources, k, 10, True)[0]
    return {
        "mpilite.procs_pingpong_us": (pingpong * 1e6, "us"),
        "mpilite.procs_exchange_ms": (exchange * 1e3, "ms"),
    }


# ----------------------------------------------------------------------
class Layers:
    """Runs the probes and the traced pass of one workload."""

    def __init__(self, wl: Workload, e2e: EndToEnd, rec: Recorder, scratch: Path) -> None:
        self.wl, self.e2e, self.rec, self.scratch = wl, e2e, rec, scratch
        self.A, self.plan, self.ops = e2e.A, e2e.plan, e2e.ops
        self.x = e2e.inputs.xs[0]
        self.m: dict[str, tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.m[name] = (float(value), unit)

    def get(self, name: str) -> float:
        return self.m[name][0]

    # -- model + sparse -------------------------------------------------
    def kernels(self) -> None:
        A, k, x = self.A, self.wl.k, self.x
        kernel = spmv if k == 1 else spmm
        working_set = A.memory_bytes() + 8 * k * (A.nrows + A.ncols)
        triad = measure_host_triad(max(1000, working_set // 24), repetitions=5)
        flops = 2.0 * A.nnz * k
        eq1 = code_balance_block(A.nnzr, k)
        eq2 = code_balance_block_split(A.nnzr, k)
        self.put("model.working_set_mb", working_set / 1e6, "MB")
        self.put("model.llc_mb", llc_bytes() / 1e6, "MB")
        self.put("model.triad_gbs", triad.bandwidth_gb, "GB/s")
        self.put("model.eq1_ms", eq1 * flops / triad.bandwidth * 1e3, "ms")
        self.put("model.eq2_ms", eq2 * flops / triad.bandwidth * 1e3, "ms")

        out = np.empty_like(self.e2e.refs[0])
        n = sweep_count(self.get("model.eq1_ms") / 1e3 * 4)
        serial_ms = timed(lambda: kernel(A, x, out=out), n=n)
        self.ops.record("layers", 1, not np.array_equal(out, self.e2e.refs[0]))
        self.put("sparse.spmv_ms", serial_ms, "ms")
        self.put("sparse.gflops", flops / serial_ms / 1e6, "GFlop/s")
        self.put("sparse.bytes_per_flop", eq1, "B/flop")
        self.put("sparse.model_fraction", self.get("model.eq1_ms") / serial_ms, "ratio")

        split = [self.split_kernel_ms(h, x, n) for h in self.plan.ranks]
        self.put("sparse.split_ms", max(split), "ms")
        self.put("sparse.split_penalty", sum(split) / serial_ms, "ratio")

        X8 = np.random.default_rng(8).standard_normal((A.nrows, 8))
        out8 = np.empty_like(X8)
        self.put(
            "sparse.spmm8_col_ms", timed(lambda: spmm(A, X8, out=out8), n=max(3, n // 4)) / 8, "ms"
        )

    @staticmethod
    def split_kernel_ms(halo, x, n: int) -> float:
        """Local then remote kernel on one rank's sub-matrices, serial."""
        block = x.ndim == 2
        full, add = (spmm, spmm_add) if block else (spmv, spmv_add)
        x_local = x[halo.row_lo : halo.row_hi]
        shape = (halo.A_remote.ncols, *x.shape[1:])
        x_halo = np.ones(shape)
        y = np.empty((halo.n_rows, *x.shape[1:]))

        def split() -> None:
            full(halo.A_local, x_local, out=y)
            add(halo.A_remote, x_halo, out=y)

        return timed(split, n=n)

    # -- core -----------------------------------------------------------
    def core(self) -> None:
        A, plan, k = self.A, self.plan, self.wl.k
        self.put("core.partition_ms", timed(lambda: partition_matrix(A, NRANKS), n=3), "ms")
        partition = plan.partition
        self.put(
            "core.plan_build_ms",
            timed(lambda: build_halo_plan(A, partition, with_matrices=True), n=1),
            "ms",
        )
        y = self.e2e.refs[0]

        def scatter_gather() -> None:
            for r in range(NRANKS):
                scatter_vector(self.x, partition, r)
            gather_vector([y[slice(*partition.bounds(r))] for r in range(NRANKS)])

        self.put("core.scatter_gather_ms", timed(scatter_gather, n=5), "ms")

        nnz = [h.nnz for h in plan.ranks]
        self.put("core.halo_bytes", plan.total_comm_bytes() * k, "B")
        self.put("core.halo_fraction", sum(h.n_halo for h in plan.ranks) / A.nrows, "ratio")
        self.put("core.messages_per_sweep", plan.total_messages(), "count")
        self.put("core.peers_max", max(len(h.recv_from) for h in plan.ranks), "count")
        self.put("core.nnz_imbalance", max(nnz) / (sum(nnz) / len(nnz)), "ratio")

    # -- program --------------------------------------------------------
    def program(self) -> None:
        def build_all() -> None:
            for scheme in SCHEMES:
                build_sweep(scheme, block_k=self.wl.k)

        self.put("program.build_us", timed(build_all, n=20, scale=1e6) / len(SCHEMES), "us")

        single = build_halo_plan(self.A, partition_matrix(self.A, 1), with_matrices=True)
        n = sweep_count(self.get("sparse.spmv_ms") / 1e3)
        dispatch = Phase("dispatch", "us")
        for rnd in range(_ROUNDS):
            swept, direct = run_spmd(1, _dispatch_rank, single.ranks[0], self.x, n)[0]
            dispatch.add(rnd, (swept - direct) * 1e6)
        self.put("program.dispatch_us", dispatch.value, "us")

    # -- mpilite --------------------------------------------------------
    def mpilite(self) -> None:
        self.put("mpilite.spawn_ms", timed(lambda: run_spmd(NRANKS, _noop_rank), n=10), "ms")
        coll = {name: Phase(name, "us") for name in ("barrier", "allreduce", "allreduce_vec", "pingpong")}
        for rnd in range(5):
            out = run_spmd(NRANKS, _collectives_rank, 200)[0]
            for name, phase in coll.items():
                phase.add(rnd, out[name] * 1e6)
        for name, phase in coll.items():
            self.put(f"mpilite.{name}_us", phase.value, "us")

        sizes = PerRank([h.send_to for h in self.plan.ranks])
        sources = PerRank([h.recv_from for h in self.plan.ranks])
        exchange = Phase("exchange", "ms")
        for rnd in range(_ROUNDS):
            exchange.add(rnd, run_spmd(NRANKS, _exchange_rank, sizes, sources, self.wl.k, 10)[0] * 1e3)
        self.put("mpilite.exchange_ms", exchange.value, "ms")
        self.put(
            "mpilite.exchange_mbs",
            self.get("core.halo_bytes") / 1e6 / (exchange.value / 1e3),
            "MB/s",
        )

    # -- the stepped sweep: core.pack, mpilite.wait, the residual guard --
    def stepped(self) -> None:
        rec = self.rec
        n = sweep_count(self.get("sparse.split_ms") / 1e3)
        naive = Phase("naive", "ms")
        identical = True
        for rnd in range(_ROUNDS):
            with rec.span("mpilite.run_spmd", phase="stepped", round=rnd) as region:
                out = run_spmd(
                    NRANKS, _stepped_rank, PerRank(self.plan.ranks), self.x, n, rec, region.id, rnd
                )
            identical = identical and all(same for same, _naive in out)
            naive.extend(rnd, (t * 1e3 for t in out[0][1]))
        self.ops.record(
            "stepped", _ROUNDS * n, 0 if identical else 1,
            "stepped sweep differs bit-wise from engine.multiply(naive_overlap)",
        )

        def best(name: str, rank: int) -> float:
            """Best round median (ms) of one stepped-sweep span on one rank."""
            phase = Phase(name, "ms")
            for s in rec.select(name, rank=rank):
                phase.add(s.ids["round"], s.seconds * 1e3)
            return phase.value

        ranks = range(NRANKS)
        self.put("core.pack_ms", max(best("core.pack", r) for r in ranks), "ms")
        self.put("mpilite.wait_ms", max(best("mpilite.wait", r) for r in ranks), "ms")
        self.put(
            "mpilite.barrier_wait_ms", max(best("mpilite.barrier_wait", r) for r in ranks), "ms"
        )
        # rank 0's phases per sweep, summed, against the plain sweep
        total = Phase("stepped", "ms")
        by_sweep: dict[tuple, float] = {}
        for name in STEPPED_SPANS:
            for s in rec.select(name, rank=0):
                key = (s.ids["round"], s.ids["sweep"])
                by_sweep[key] = by_sweep.get(key, 0.0) + s.seconds * 1e3
        for (rnd, _sweep), ms in by_sweep.items():
            total.add(rnd, ms)
        self.put("ledger.stepped_ms", total.value, "ms")
        self.put("ledger.stepped_naive_ms", naive.value, "ms")
        self.put(
            "ledger.stepped_residual_frac", abs(total.value - naive.value) / naive.value, "ratio"
        )

    # -- engines: init, op counts, node-aware lowering, halo-free twin ---
    def engines(self) -> None:
        plan, x = self.plan, self.x
        n = sweep_count(self.get("sparse.split_ms") / 1e3)
        inits = []
        for scheme, label in SCHEME_LABEL.items():
            out = run_spmd(NRANKS, _engine_rank, PerRank(plan.ranks), x, None, scheme, 1)
            inits.append(max(o["init"] for o in out))
            self.put(f"program.ops_per_sweep_{label}", out[0]["ops"], "count")
        self.put("core.engine_init_ms", min(inits) * 1e3, "ms")

        t0 = time.perf_counter()
        lowered = lower_comm_plan(plan, NRANKS, "node-aware", ranks_per_node=1)
        self.put("comm.lower_ms", (time.perf_counter() - t0) * 1e3, "ms")
        stats = plan_stats(lowered)
        self.put("comm.plan_messages", stats.messages, "count")
        self.put("comm.plan_bytes", (stats.internode_bytes + stats.intranode_bytes) * self.wl.k, "B")

        twin = halo_free_twin(self.A, plan)
        twin_plan = build_halo_plan(twin, plan.partition, with_matrices=True)
        twin_ok = all(
            t.n_halo == 0 and t.A_local.nnz == h.A_local.nnz
            for t, h in zip(twin_plan.ranks, plan.ranks)
        )
        self.ops.record("layers", 1, not twin_ok, "halo-free twin has a halo")

        # the three sweeps the depth differences are made of, turn about
        sweeps = {
            "ledger.sweep_ms": (plan, None),
            "comm.plan_sweep_ms": (plan, lowered),
            "ledger.twin_sweep_ms": (twin_plan, None),
        }
        phases = {name: Phase(name, "ms") for name in sweeps}
        for rnd in range(_ROUNDS):
            for name, (halos, comm_plan) in sweeps.items():
                out = run_spmd(
                    NRANKS, _engine_rank, PerRank(halos.ranks), x, comm_plan, "task_mode", n
                )
                phases[name].extend(rnd, (t * 1e3 for t in out[0]["times"]))
                if halos is plan:
                    got = gather_vector([o["y"] for o in out])
                    self.ops.record("layers", 1, not close_to(got, self.e2e.refs[0]))
        for name, phase in phases.items():
            self.put(name, phase.value, "ms")
        self.put(
            "ledger.twin_kernel_ms",
            max(self.split_kernel_ms(h, x, n) for h in twin_plan.ranks),
            "ms",
        )

    # -- serve: model file round trip -------------------------------------
    def serve(self) -> None:
        model = self.e2e.service.model
        path = self.scratch / "model.npz"
        t0 = time.perf_counter()
        model.save(path)
        t1 = time.perf_counter()
        loaded = BuiltModel.load(path)
        t2 = time.perf_counter()
        self.put("serve.model_save_ms", (t1 - t0) * 1e3, "ms")
        self.put("serve.model_load_ms", (t2 - t1) * 1e3, "ms")
        self.put("serve.model_bytes", path.stat().st_size, "B")
        self.ops.record("layers", 1, loaded.fingerprint != model.fingerprint, "model round trip")

    # -- solvers + simulator ---------------------------------------------
    def solvers(self, off: dict[str, Phase], on: dict[str, Phase]) -> None:
        e2e, wl, rec = self.e2e, self.wl, self.rec
        res = e2e.solve_once(0, off)
        e2e.solve_once(0, on, rec)
        t0 = time.perf_counter()
        serial = run_solver(SerialOperator(self.A), wl, e2e.inputs.solver_vector)
        serial_s = time.perf_counter() - t0
        if wl.solver == "lanczos":
            agree = abs(serial["value"] - res["value"]) <= 1e-6
        else:
            scale = float(np.abs(serial["vector"]).max())
            agree = bool(np.allclose(res["vector"], serial["vector"], rtol=1e-6, atol=1e-6 * scale))
        self.ops.record("solve", 1, not agree, "distributed and serial solver disagree beyond 1e-6")

        solve_s = off["solve_s"].value
        for name in ("exchanges", "reductions", "messages"):
            self.put(f"solvers.{name}", e2e.solve_counters[name], "count")
        self.put("solvers.iterations", res["iterations"], "count")
        self.put("solvers.iter_ms", solve_s / res["iterations"] * 1e3, "ms")
        self.put("solvers.serial_solve_s", serial_s, "s")
        self.put("solvers.efficiency", serial_s / (NRANKS * solve_s), "ratio")
        region = rec.select("mpilite.run_spmd", phase="solve")[-1]
        matvec = rec.total("solvers.matvec", rank=0, parent=region.id)
        reduce = sum(
            rec.total(name, rank=0, parent=region.id)
            for name in ("solvers.dot", "solvers.dot_many", "solvers.norm")
        )
        self.put("solvers.matvec_share", matvec / region.seconds, "ratio")
        self.put("solvers.reduction_share", reduce / region.seconds, "ratio")
        self.put(
            "solvers.vector_share", max(0.0, 1.0 - (matvec + reduce) / region.seconds), "ratio"
        )

    def simulator(self, off: dict[str, Phase], on: dict[str, Phase]) -> None:
        e2e, A, tag = self.e2e, self.A, f"{SIM_POINT_NODES}n"
        e2e.sim_once(0, off)
        e2e.sim_once(0, on, self.rec)
        cluster = westmere_cluster(SIM_POINT_NODES)
        kwargs = dict(mode="per-ld", scheme="task_mode", kappa=SIM_KAPPA, block_k=self.wl.k)
        for scheme, label in SCHEME_LABEL.items():
            res = simulate_spmvm(A, cluster, **{**kwargs, "scheme": scheme})
            self.put(f"sim.gflops_{label}_{tag}", res.gflops, "GFlop/s")
        point = Phase("point", "ms")
        traced = Phase("traced", "ms")
        for rnd in range(2):
            t0 = time.perf_counter()
            res = simulate_spmvm(A, cluster, **kwargs)
            t1 = time.perf_counter()
            simulate_spmvm(A, cluster, trace=True, **kwargs)
            t2 = time.perf_counter()
            point.add(rnd, (t1 - t0) * 1e3)
            traced.add(rnd, (t2 - t1) * 1e3)
        nranks = ranks_for_mode(cluster, "per-ld")

        def plan_build() -> None:
            build_halo_plan(A, partition_matrix(A, nranks), with_matrices=False)

        self.put(f"sim.point_ms_{tag}_task", point.value, "ms")
        self.put("sim.traced_ratio", traced.value / point.value, "ratio")
        self.put("sim.plan_build_s", timed(plan_build, n=1, rounds=2, scale=1.0), "s")
        self.put(f"sim.messages_per_mvm_{tag}", res.messages_per_mvm, "count")
        self.put(f"sim.comm_bytes_per_mvm_{tag}", res.comm_bytes_per_mvm, "B")

    # -- depth differences and tracing overhead --------------------------
    def ledger(self, off: dict[str, Phase], on: dict[str, Phase]) -> None:
        task = off["sweep_task_ms"].value
        naive = off["sweep_naive_ms"].value
        request = off["request_p50_ms"].value
        # kernel + dispatch + rendezvous + exchange = ledger.sweep_ms, the
        # task sweep timed turn about with the twin's (not sweep_task_ms,
        # which another part of this run measured under other noise)
        kernel = self.get("sparse.split_ms")
        dispatch = self.get("program.dispatch_us") / 1e3
        rendezvous = self.get("ledger.twin_sweep_ms") - self.get("ledger.twin_kernel_ms") - dispatch
        self.put("ledger.kernel_ms", kernel, "ms")
        self.put("ledger.dispatch_ms", dispatch, "ms")
        self.put("ledger.rendezvous_ms", rendezvous, "ms")
        self.put(
            "ledger.exchange_ms", self.get("ledger.sweep_ms") - kernel - dispatch - rendezvous, "ms"
        )
        self.put("ledger.call_ms", off["spmv_call_ms"].value - task, "ms")
        self.put("ledger.serve_ms", request - task, "ms")
        self.put("program.comm_thread_ms", task - naive, "ms")
        self.put("serve.overhead_ms", request - task, "ms")
        requests = off["request_p50_ms"].samples
        self.put("serve.request_p95_ms", percentile(requests, 95), "ms")
        self.put("serve.request_max_ms", max(requests), "ms")
        width = statistics.mean(off["serve.mean_batch_width"].samples)
        self.put("serve.mean_batch_width", width, "count")
        self.put("serve.batch_fill", width / MAX_BATCH, "ratio")
        self.put("serve.batches", statistics.mean(off["serve.batches"].samples), "count")
        self.put("serve.held_burst_rps", off["serve.held_burst_rps"].value, "req/s")
        self.put("serve.submit_us", off["serve.submit_us"].value, "us")
        for name in ("build_model", "start", "first_request", "close"):
            self.put(f"serve.{name}_ms", off[f"serve.{name}_ms"].value, "ms")
        for name in ("sweep_task_ms", "sweep_vector_ms", "sweep_naive_ms", "spmv_call_ms",
                     "request_p50_ms", "solve_s", "sim_sweep_s"):
            stem = name.rsplit("_", 1)[0]
            self.put(f"ledger.trace_overhead_{stem}", on[name].value / off[name].value, "ratio")
        self.put(
            "ledger.trace_overhead_burst", off["burst_rps"].value / on["burst_rps"].value, "ratio"
        )

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> dict[str, tuple[float, str]]:
        """All probes, then untraced and traced end-to-end rounds turn
        about until *seconds* have passed (three of each at least)."""
        e2e, rec = self.e2e, self.rec
        start = time.perf_counter()
        self.kernels()
        self.core()
        self.program()
        self.mpilite()
        self.engines()
        self.stepped()
        self.serve()
        off, on = e2e.new_phases(), e2e.new_phases()
        e2e.warm_up()
        self.solvers(off, on)
        self.simulator(off, on)
        rnd = 0
        while rnd < 3 or time.perf_counter() - start < seconds:
            e2e.fast_round(rnd, off)
            e2e.fast_round(rnd, on, rec)
            e2e.burst_round(rnd, off, held=True)
            e2e.setup_once(rnd, off)
            rnd += 1
        self.ledger(off, on)
        return self.m
