"""The ten end-to-end phases, timed from outside through public calls.

One :class:`EndToEnd` object owns a workload's matrix, seeded inputs,
serial references and the warm :class:`~repro.serve.SolverService`.
Its ``*_round`` / ``*_once`` methods each take one round of samples of
one phase into a set of :class:`~estimator.Phase` objects; :meth:`run`
interleaves them for ``--seconds`` with tracing off.  The traced pass
(``layers.py``) calls the same methods with a span recorder, so the
traced and untraced numbers come from identical code.

Every result is checked: against the serial ``spmv``/``spmm`` reference
(``allclose``, rtol = atol = 1e-10), bit-wise against the first result
of the same kind, solver answers by their true residual, simulated
GFlop/s by exact repetition.  A failed check is a failed op.
"""

from __future__ import annotations

import contextlib
import gc
import json
import subprocess
import time
from collections import Counter

import numpy as np

from estimator import Phase
from spans import Recorder, span
from workloads import (
    ATOL,
    BURST,
    MAX_BATCH,
    NRANKS,
    POOL,
    RTOL,
    SCHEME_LABEL,
    SCHEMES,
    SIM_KAPPA,
    SIM_NODES,
    Inputs,
    Workload,
)

from repro.core import (
    DistributedSpMVM,
    cached_halo_plan,
    distributed_spmm,
    distributed_spmv,
    gather_vector,
    simulate_spmvm,
)
from repro.machine.presets import westmere_cluster
from repro.mpilite import PerRank, run_spmd
from repro.serve import SolverService, build_model
from repro.solvers import DistributedOperator, conjugate_gradient, lanczos
from repro.sparse import spmm, spmv

MIN_ROUNDS = 3
#: Samples of each fast phase per round: the window the estimator takes
#: its median over.  Three, so that a run has hundreds of windows and one
#: disturbed sample cannot spoil a window.
ROUND = 3
#: Cold set-ups per run: SETUPS rounds spread over the run, each of
#: SETUP_TRIES fresh processes back to back.
SETUPS, SETUP_TRIES = 5, 3
#: Shares of ``--seconds``: untimed warm-up solves, then timed solves
#: and simulated sweeps; set-ups take what they take (about a seventh on
#: the small workloads), the fast rounds get the rest.
WARM_SOLVE_SHARE, SOLVE_SHARE, SIM_SHARE = 0.06, 0.20, 0.12
_TIMEOUT = 120.0


class Ops:
    """Operations attempted and failed, per phase.

    ``corrupt`` names phases whose next result is damaged inside the
    comparison path (``run.py --self-check``): proof the gate can fire.
    """

    def __init__(self, corrupt=()) -> None:
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.notes: list[str] = []
        self._corrupt = set(corrupt)

    def seeded(self, phase: str) -> bool:
        """True exactly once for each phase named in ``corrupt``."""
        if phase in self._corrupt:
            self._corrupt.discard(phase)
            return True
        return False

    def record(self, phase: str, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted[phase] += attempted
        if failed:
            self.failed[phase] += failed
            self.notes.append(f"{phase}: {note or 'result mismatch'}")


def close_to(got: np.ndarray, ref: np.ndarray) -> bool:
    return got.shape == ref.shape and bool(np.allclose(got, ref, rtol=RTOL, atol=ATOL))


class SpanOperator:
    """Benchmark-side proxy putting a span around each operator call, so
    a traced solve splits into matvec, reductions and the solver's own
    vector work."""

    def __init__(self, op: DistributedOperator, rec: Recorder, parent: int, rank: int) -> None:
        self.op, self.rec, self.ids = op, rec, {"parent": parent, "rank": rank}
        self.iteration = 0

    @property
    def local_size(self) -> int:
        return self.op.local_size

    def matvec(self, x):
        self.iteration += 1
        with self.rec.span("solvers.matvec", iteration=self.iteration, **self.ids):
            return self.op.matvec(x)

    def matvec_chain(self, x, n, **kwargs):
        self.iteration += n
        with self.rec.span("solvers.matvec", iteration=self.iteration, **self.ids):
            return self.op.matvec_chain(x, n, **kwargs)

    def dot(self, x, y):
        with self.rec.span("solvers.dot", iteration=self.iteration, **self.ids):
            return self.op.dot(x, y)

    def dot_many(self, pairs):
        with self.rec.span("solvers.dot_many", iteration=self.iteration, **self.ids):
            return self.op.dot_many(pairs)

    def norm(self, x):
        with self.rec.span("solvers.norm", iteration=self.iteration, **self.ids):
            return self.op.norm(x)


class StampOperator:
    """Benchmark-side proxy noting the clock at each ``matvec``, so that
    an untraced solve splits into its iterations (``best-parts``)."""

    def __init__(self, op: DistributedOperator) -> None:
        self.op, self.stamps = op, []

    def __getattr__(self, name):  # local_size, dot, dot_many, norm
        return getattr(self.op, name)

    def matvec(self, x):
        self.stamps.append(time.perf_counter())
        return self.op.matvec(x)

    def matvec_chain(self, x, n, **kwargs):
        self.stamps.append(time.perf_counter())
        return self.op.matvec_chain(x, n, **kwargs)


def run_solver(op, wl: Workload, vector: np.ndarray) -> dict:
    """The workload's solver on *op* (serial or one rank's distributed view)."""
    if wl.solver == "lanczos":
        res = lanczos(op, tol=wl.tol, max_iter=wl.max_iter, v0=vector, want_vector=True)
        return {
            "iterations": res.iterations,
            "converged": bool(np.all(res.residuals <= wl.tol)),
            "value": res.ground_energy,
            "vector": res.ritz_vector,
        }
    res = conjugate_gradient(op, vector, tol=wl.tol, max_iter=wl.max_iter)
    return {
        "iterations": res.iterations,
        "converged": res.converged,
        "value": res.residual_norm,
        "vector": res.x,
    }


def _solve_rank(comm, halo, wl, vector, rec, parent):
    op = DistributedOperator(comm, halo, "task_mode")
    local = vector[halo.row_lo : halo.row_hi]
    proxy = StampOperator(op) if rec is None else SpanOperator(op, rec, parent, comm.rank)
    out = run_solver(proxy, wl, local)
    out["counters"] = dict(op.counters)
    out["stamps"] = proxy.stamps if rec is None else []
    return out


def _sweep_rank(comm, halo, x, ref, firsts, n, rec, parent, corrupt):
    """One persistent SPMD region: *n* timed sweeps of every scheme."""
    engine = DistributedSpMVM(comm, halo)
    multiply = engine.multiply if x.ndim == 1 else engine.multiply_block
    x_local = x[halo.row_lo : halo.row_hi].copy()
    ref_local = ref[halo.row_lo : halo.row_hi]
    for scheme in SCHEMES:
        multiply(x_local, scheme)
    times = {scheme: [] for scheme in SCHEMES}
    failed = 0
    for i in range(n):
        for scheme in SCHEMES:
            comm.barrier()
            t0 = time.perf_counter()
            with span(rec, "core.multiply", parent=parent, rank=comm.rank, scheme=scheme, sweep=i):
                y = multiply(x_local, scheme)
            comm.barrier()
            times[scheme].append(time.perf_counter() - t0)
            first = firsts.setdefault((comm.rank, scheme), y)
            if corrupt and comm.rank == 0 and i == 0 and scheme == SCHEMES[0]:
                y = y.copy()
                y.flat[0] += 1.0
            if first is y:
                failed += not close_to(y, ref_local)
            else:
                failed += not np.array_equal(y, first)
    return times, failed


def cold_setup(A, x: np.ndarray) -> dict:
    """Cold model build + service start + first request answered, timed
    in parts (seconds); ``ok`` says the answer matched the serial kernel."""
    ref = (spmv if x.ndim == 1 else spmm)(A, x)
    gc.collect()
    t0 = time.perf_counter()
    model = build_model(A, NRANKS, reuse_caches=False)
    t1 = time.perf_counter()
    service = SolverService(model, max_batch=MAX_BATCH)
    t2 = time.perf_counter()
    try:
        y = service.solve(x, timeout=_TIMEOUT)
        t3 = time.perf_counter()
    finally:
        service.close()
    t4 = time.perf_counter()
    return {
        "build_model": t1 - t0,
        "start": t2 - t1,
        "first_request": t3 - t2,
        "close": t4 - t3,
        "ok": close_to(y, ref),
    }


class EndToEnd:
    """A workload's end-to-end phases (see the module docstring)."""

    def __init__(self, wl: Workload, A, inputs: Inputs, ops: Ops, setup_cmd: list[str]) -> None:
        self.wl, self.A, self.inputs, self.ops = wl, A, inputs, ops
        #: command of a fresh process that sets up once (``cold_setup``)
        self.setup_cmd = setup_cmd
        kernel = spmv if wl.k == 1 else spmm
        self.refs = [kernel(A, x) for x in inputs.xs]
        self.plan = cached_halo_plan(A, NRANKS, with_matrices=True)
        self.call = distributed_spmv if wl.k == 1 else distributed_spmm
        self.service = SolverService(build_model(A, NRANKS), max_batch=MAX_BATCH)
        self.firsts: dict = {}
        self.solve_iterations: int | None = None
        self.solve_counters: dict = {}
        self.sim_first: dict | None = None

    def close(self) -> None:
        self.service.close()

    @staticmethod
    def new_phases() -> dict[str, Phase]:
        phases = [Phase(f"sweep_{label}_ms", "ms") for label in SCHEME_LABEL.values()]
        phases += [
            Phase("setup_s", "s", estimator="median-round-best"),
            Phase("spmv_call_ms", "ms"),
            Phase("request_p50_ms", "ms"),
            Phase("burst_rps", "req/s", better="higher"),
            Phase("serve.held_burst_rps", "req/s", better="higher"),
            Phase("solve_s", "s", estimator="best-parts"),
            Phase("sim_sweep_s", "s", estimator="best-parts"),
            Phase("serve.build_model_ms", "ms"),
            Phase("serve.start_ms", "ms"),
            Phase("serve.first_request_ms", "ms"),
            Phase("serve.close_ms", "ms"),
            Phase("serve.submit_us", "us"),
            Phase("serve.mean_batch_width", "count"),
            Phase("serve.batches", "count"),
        ]
        return {p.name: p for p in phases}

    # -- checks ---------------------------------------------------------
    def _check(self, kind: str, pool: int, got: np.ndarray) -> bool:
        """*got* against the serial reference (first of its kind) or
        bit-wise against that first result."""
        first = self.firsts.setdefault((kind, pool), got)
        if self.ops.seeded(kind):
            got = got.copy()
            got.flat[0] += 1.0
        if first is got:
            return close_to(got, self.refs[pool])
        return bool(np.array_equal(got, first))

    # -- fast phases ----------------------------------------------------
    def warm_up(self, seconds: float = 0.0) -> None:
        """One untimed pass of every phase, until the process is in its
        steady state.

        The solver is run for ``WARM_SOLVE_SHARE`` of *seconds* (once at
        least): the first five or so Lanczos solves of a process are
        40 % faster than all later ones (README, "Findings"), and a
        timed sample from that transient would be reported as the best.
        """
        start = time.perf_counter()
        probe = self.new_phases()
        self.fast_round(-1, probe)
        self.sim_once(-1, probe)
        self.solve_once(-1, probe)
        while time.perf_counter() - start < WARM_SOLVE_SHARE * seconds:
            self.solve_once(-1, probe)
        self.firsts.clear()

    def fast_round(self, rnd: int, phases: dict[str, Phase], rec: Recorder | None = None) -> None:
        gc.collect()
        self.sweep_round(rnd, phases, rec)
        self.call_round(rnd, phases, rec)
        self.request_round(rnd, phases, rec)
        self.burst_round(rnd, phases, rec)

    def sweep_round(self, rnd, phases, rec=None) -> None:
        with span(rec, "mpilite.run_spmd", phase="sweep", round=rnd) as region:
            out = run_spmd(
                NRANKS, _sweep_rank, PerRank(self.plan.ranks), self.inputs.xs[0], self.refs[0],
                self.firsts, ROUND, rec, region.id if rec else None, self.ops.seeded("sweep"),
            )
        # a sweep lasts as long as its slower rank: a rank whose clock was
        # started late, after its peer had done the sending, reads short
        for scheme, label in SCHEME_LABEL.items():
            per_rank = [times[scheme] for times, _failed in out]
            phases[f"sweep_{label}_ms"].extend(rnd, (max(ts) * 1e3 for ts in zip(*per_rank)))
        self.ops.record("sweep", ROUND * len(SCHEMES), sum(failed for _times, failed in out))

    def call_round(self, rnd, phases, rec=None) -> None:
        x = self.inputs.xs[0]
        for i in range(ROUND):
            t0 = time.perf_counter()
            with span(rec, "core.distributed_call", call=i, round=rnd):
                y = self.call(self.A, x, NRANKS)
            phases["spmv_call_ms"].add(rnd, (time.perf_counter() - t0) * 1e3)
            self.ops.record("call", 1, not self._check("call", 0, y))

    def request_round(self, rnd, phases, rec=None) -> None:
        for i in range(ROUND):
            pool = i % POOL
            t0 = time.perf_counter()
            with span(rec, "serve.solve", request=i, round=rnd):
                try:
                    y = self.service.solve(self.inputs.xs[pool], timeout=_TIMEOUT)
                except Exception as exc:  # a refused request is a failed op
                    self.ops.record("request", 1, 1, repr(exc))
                    continue
            phases["request_p50_ms"].add(rnd, (time.perf_counter() - t0) * 1e3)
            self.ops.record("request", 1, not self._check("request", pool, y))

    def burst_round(self, rnd, phases, rec=None, *, held: bool = False) -> None:
        """One client submits BURST tickets back to back, then gathers all.

        ``held`` stages the submits under ``service.hold()`` so every
        batch is full: the upper bound the dispatcher race falls short of.
        """
        before = self.service.stats
        submit_s = 0.0
        tickets = []
        t0 = time.perf_counter()
        with self.service.hold() if held else contextlib.nullcontext():
            for i in range(BURST):
                s0 = time.perf_counter()
                with span(rec, "serve.submit", request=i, round=rnd):
                    tickets.append(self.service.submit(self.inputs.xs[i % POOL]))
                submit_s += time.perf_counter() - s0
        results = []
        for i, ticket in enumerate(tickets):
            with span(rec, "serve.gather", request=i, round=rnd):
                try:
                    results.append(self.service.gather(ticket, timeout=_TIMEOUT))
                except Exception as exc:  # a refused request is a failed op
                    results.append(None)
                    self.ops.notes.append(f"burst: {exc!r}")
        rps = BURST / (time.perf_counter() - t0)
        after = self.service.stats
        bad = sum(
            y is None or not self._check("request", i % POOL, y)
            for i, y in enumerate(results)
        )
        self.ops.record("burst", BURST, bad)
        if held:
            phases["serve.held_burst_rps"].add(rnd, rps)
            return
        phases["burst_rps"].add(rnd, rps)
        phases["serve.submit_us"].add(rnd, submit_s / BURST * 1e6)
        batches = after["batches"] - before["batches"]
        phases["serve.batches"].add(rnd, batches)
        phases["serve.mean_batch_width"].add(
            rnd, (after["columns"] - before["columns"]) / batches
        )

    # -- slow phases ----------------------------------------------------
    def setup_once(self, rnd, phases) -> None:
        """One round of cold set-ups: SETUP_TRIES back to back, each in
        a fresh process (``cold_setup`` there).

        In this process a set-up would be timed in whatever state the
        allocator is in: after about five model builds the same
        ``build_model`` takes 3x as long (README, "Findings"), so
        in-process samples fell into two modes and their median flipped
        between runs.  A fresh process is also what "cold" means to the
        user who starts a service.
        """
        for _ in range(SETUP_TRIES):
            proc = subprocess.run(self.setup_cmd, capture_output=True, text=True, timeout=_TIMEOUT)
            if proc.returncode != 0:
                self.ops.record("setup", 1, 1, proc.stderr.strip()[-200:])
                continue
            parts = json.loads(proc.stdout.strip().splitlines()[-1])
            phases["setup_s"].add(
                rnd, parts["build_model"] + parts["start"] + parts["first_request"]
            )
            for name in ("build_model", "start", "first_request", "close"):
                phases[f"serve.{name}_ms"].add(rnd, parts[name] * 1e3)
            self.ops.record("setup", 1, not parts["ok"])

    def solve_once(self, rnd, phases, rec=None) -> dict:
        """Time to solution on NRANKS ranks; returns rank 0's outcome.

        Untraced, the sample is taken in parts: start to a rank's first
        ``matvec``, each ``matvec`` to the next, the last to the end.
        """
        gc.collect()
        t0 = time.perf_counter()
        with span(rec, "mpilite.run_spmd", phase="solve", round=rnd) as region:
            out = run_spmd(
                NRANKS, _solve_rank, PerRank(self.plan.ranks), self.wl,
                self.inputs.solver_vector, rec, region.id if rec else None,
            )
        t1 = time.perf_counter()
        # like a sweep, a part lasts as long as it does on its slower rank
        marks = [[t0, *o["stamps"], t1] for o in out]
        steps = zip(*([b - a for a, b in zip(m, m[1:])] for m in marks))
        phases["solve_s"].add_parts(rnd, {str(i): max(step) for i, step in enumerate(steps)})
        res = out[0]
        res["vector"] = gather_vector([o["vector"] for o in out])
        note = self._solve_fault(res)
        self.ops.record("solve", 1, bool(note), note)
        self.solve_counters = res["counters"]
        return res

    def _solve_fault(self, res: dict) -> str:
        """Why this solve is a failed op ('' if it is not)."""
        if not res["converged"]:
            return f"{self.wl.solver} did not converge in {res['iterations']} iterations"
        if self.solve_iterations is None:
            self.solve_iterations = res["iterations"]
        elif res["iterations"] != self.solve_iterations:
            return f"iterations changed: {self.solve_iterations} -> {res['iterations']}"
        v, b = res["vector"], self.inputs.solver_vector
        if self.wl.solver == "lanczos":
            residual = np.linalg.norm(spmv(self.A, v) - res["value"] * v)
        else:
            residual = np.linalg.norm(b - spmv(self.A, v)) / np.linalg.norm(b)
        if not residual <= 10 * self.wl.tol:
            return f"true residual {residual:.3e} exceeds 10 x tol {self.wl.tol:g}"
        return ""

    def sim_once(self, rnd, phases, rec=None) -> dict:
        """One pass over the simulated strong-scaling sweep."""
        gc.collect()
        gflops, seconds = {}, {}
        for nodes in SIM_NODES:
            for scheme in SCHEMES:
                point = f"{nodes}n-{SCHEME_LABEL[scheme]}"
                t0 = time.perf_counter()
                with span(rec, "sim.simulate_spmvm", nodes=nodes, scheme=scheme, round=rnd):
                    res = simulate_spmvm(
                        self.A, westmere_cluster(nodes), mode="per-ld", scheme=scheme,
                        kappa=SIM_KAPPA, block_k=self.wl.k,
                    )
                seconds[point] = time.perf_counter() - t0
                gflops[point] = res.gflops
        phases["sim_sweep_s"].add_parts(rnd, seconds)
        if self.sim_first is None:
            self.sim_first = gflops
        seen = dict(gflops)
        if self.ops.seeded("sim"):
            seen[next(iter(seen))] += 1.0
        bad = sum(not np.isfinite(v) or v != self.sim_first[key] for key, v in seen.items())
        self.ops.record("sim", len(gflops), bad, "simulated GFlop/s not finite or not repeated")
        return gflops

    # -- the untraced run -----------------------------------------------
    def run(self, seconds: float) -> dict[str, Phase]:
        """Warm up, then interleave all phases until *seconds* have
        passed since the call, tracing off.

        Round r samples every fast phase once.  After each round a slow
        phase that is behind its share of the time takes one sample, so
        solves and simulated sweeps spread over the whole run; set-up
        round i (of SETUPS) is taken once i / SETUPS of the time has
        passed.  No sample is started that the last one's cost says
        would end after the deadline, so a run lasts *seconds* plus at
        most a round (every phase is sampled once at least, and
        MIN_ROUNDS rounds, however short the run).
        """
        start = time.perf_counter()
        self.warm_up(seconds)
        phases = self.new_phases()
        slow = [
            _Slow(self.setup_once, None, SETUPS),
            _Slow(self.solve_once, SOLVE_SHARE),
            _Slow(self.sim_once, SIM_SHARE),
        ]
        measuring = time.perf_counter()
        rnd = 0
        while True:
            self.fast_round(rnd, phases)
            for phase in slow:
                now = time.perf_counter()
                phase.take_if_due(rnd, phases, now - measuring, start + seconds - now)
            rnd += 1
            if time.perf_counter() - start >= seconds and rnd >= MIN_ROUNDS:
                return phases


class _Slow:
    """Sampling plan of one slow phase of :meth:`EndToEnd.run`: a share
    of the measuring time, or *most* samples spread evenly over it."""

    def __init__(self, once, share: float | None, most: int = 1 << 30) -> None:
        self.once, self.share, self.most = once, share, most
        self.done, self.spent, self.last = 0, 0.0, 0.0

    def take_if_due(self, rnd: int, phases, elapsed: float, left: float) -> None:
        if self.done:
            if self.done >= self.most or self.last > left:
                return
            behind = (
                self.spent < self.share * elapsed if self.share is not None
                else elapsed >= self.done * (elapsed + left) / self.most
            )
            if not behind:
                return
        t0 = time.perf_counter()
        self.once(rnd, phases)
        self.last = time.perf_counter() - t0
        self.spent += self.last
        self.done += 1
