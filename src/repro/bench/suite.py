"""The spMVM benchmark suite: kernel, batched, and distributed timings.

Three groups mirror the layers of the implementation:

* ``kernel`` — the raw kernels on one process: ``spmv`` with and
  without a preallocated output (the allocation-free hot path), the
  block kernel ``spmm`` for k ∈ {1, 4, 16}, and every *non-default*
  kernel registered in :mod:`repro.sparse.registry` (correctness-gated
  against the CSR reference before it is timed);
* ``distributed`` — the mpilite engine end to end: ``distributed_spmv``
  and the batched ``distributed_spmm``, including halo exchange (one
  message per peer per sweep, k columns per message when batched);
* ``program`` — the sweep-IR guard: the fixed dispatch cost of
  :func:`repro.program.execute_sweep` must stay under 5% of the
  single-rank spmv hot path (asserted, not just reported);
* ``serve`` — the build-once/serve-many contract (:mod:`repro.serve`):
  cold build-and-serve vs. warm requests against a persistent
  :class:`~repro.serve.SolverService` (:func:`serve_guard` asserts the
  warm path is at least :data:`SERVE_WARM_SPEEDUP_MIN` times faster),
  plus coalesced-batch throughput with every response checked
  bit-for-bit against the same service's independent per-request
  answers;
* ``solver`` — the communication-avoiding CG contract
  (:func:`repro.solvers.sstep_cg` vs classic
  :func:`~repro.solvers.conjugate_gradient`, SPMD on a Poisson system):
  both must converge to the same solution, and the s-step variant must
  post strictly fewer communication operations per iteration — counted
  deterministically from the operators' ``counters``, not timed
  (:func:`solver_guard`); an interleaved wall-time ratio additionally
  guards the latency-dominated small-matrix regime against the fused
  path being slower where it should win;
* ``check`` — the opt-in observability tax: one task-mode
  ``distributed_spmv`` with a :class:`~repro.check.ThreadSanitizer`
  attached vs. the same sweep uninstrumented, interleaved
  (:func:`sanitizer_guard` asserts the instrumented run stays under
  :data:`SANITIZER_OVERHEAD_MAX`, and the clean run must report zero
  races before its timing counts);
* ``workload`` (full mode only) — the cluster-scale reference studies
  (:mod:`repro.experiments.workload`): FCFS vs EASY utilisation on the
  fat tree, random vs node-aware placement on the loaded torus, and the
  solo-vs-co-running link-contention probe, each enforced by
  :func:`workload_guard`.

Every result carries a ``gflops`` derived figure (2 flops per nonzero
per right-hand side, from the minimum sample), and every block result a
``speedup_vs_spmv`` per-column speedup next to the prediction of the
block code-balance model ``6/k + 12/Nnzr + kappa/2``
(``model_speedup``, :mod:`repro.model`) — the batching win shows up
directly in ``BENCH_spmvm.json``.

Block speedups are measured with an *interleaved* protocol
(:func:`_paired_speedup`): spmv and spmm samples alternate in time, so
a machine-wide slowdown mid-suite moves both sides of the ratio
instead of faking a regression.  :func:`kernel_guard` then asserts the
spmm-k1 speedup never drops below 1.0 and spmm-k4/k16 stay strictly
above it — the regression this suite exists to catch, enforced on every
CI bench-smoke run (skipped below :data:`KERNEL_GUARD_MIN_ROWS` rows,
where the kernels are all dispatch overhead and the ratio is noise).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import BenchResult, TimingStats, time_callable
from repro.core.spmvm import distributed_spmm, distributed_spmv
from repro.matrices import random_sparse
from repro.model.code_balance import block_speedup
from repro.sparse import available_kernels, build_operator, get_kernel, spmm, spmv
from repro.sparse.csr import CSRMatrix

__all__ = [
    "BLOCK_WIDTHS",
    "KERNEL_GUARD_MIN_ROWS",
    "SANITIZER_OVERHEAD_MAX",
    "SERVE_WARM_SPEEDUP_MIN",
    "SOLVER_GUARD_MIN_ROWS",
    "SOLVER_SPEED_RATIO_MAX",
    "kernel_guard",
    "sanitizer_guard",
    "serve_guard",
    "solver_guard",
    "workload_guard",
    "spmvm_suite",
]

#: Block widths exercised by the batched benchmarks.
BLOCK_WIDTHS = (1, 4, 16)

#: Smallest matrix on which :func:`kernel_guard` enforces block speedups.
KERNEL_GUARD_MIN_ROWS = 2_000

#: Minimum cold-build-and-serve / warm-request latency ratio
#: (:func:`serve_guard`).  The whole point of the persistent service is
#: amortising the one-time bookkeeping; if a warm request is not at
#: least this much cheaper than a cold build-and-serve, the service
#: stopped paying for itself.
SERVE_WARM_SPEEDUP_MIN = 5.0

#: Smallest matrix on which :func:`serve_guard` enforces the ratio.  On
#: sub-guard matrices the one-time bookkeeping is so cheap that thread
#: spin-up dominates the cold side and the ratio sits at the bound by
#: noise alone — the same reasoning as :data:`KERNEL_GUARD_MIN_ROWS`.
SERVE_GUARD_MIN_ROWS = 2_000

#: Maximum instrumented/uninstrumented wall-time ratio of a task-mode
#: ``distributed_spmv`` sweep with a thread sanitizer attached
#: (:func:`sanitizer_guard`).  The sanitizer is the always-affordable
#: debugging tool; if attaching it costs more than 20% the
#: instrumentation stopped being something you can leave on in tests.
#: Enforced only at :data:`SANITIZER_GUARD_MIN_ROWS` and above: on tiny
#: matrices the sweep is sub-millisecond and thread spin-up jitter can
#: push even a zero-cost hook past any fixed bound — the same no-flake
#: policy as :data:`KERNEL_GUARD_MIN_ROWS`/:data:`SERVE_GUARD_MIN_ROWS`.
SANITIZER_OVERHEAD_MAX = 1.20
SANITIZER_GUARD_MIN_ROWS = 2_000

#: Maximum s-step/classic CG wall-time ratio on the latency-dominated
#: small-matrix configuration (:func:`solver_guard`).  The margin is
#: generous — in-process mpilite has no wire latency, so most of the
#: fused-collective win cannot show up here; the ratio only guards
#: against the restructured solver being outright slower.  The message
#: economics are guarded separately on *counted* communication, which is
#: deterministic.
SOLVER_SPEED_RATIO_MAX = 1.25

#: Smallest system on which :func:`solver_guard` enforces the wall-time
#: ratio (same no-flake policy as :data:`KERNEL_GUARD_MIN_ROWS`; the
#: counted-communication assertions are enforced at every size).
SOLVER_GUARD_MIN_ROWS = 2_000


def _gflops(nnz: int, k: int, seconds: float) -> float:
    return 2.0 * nnz * k / seconds / 1e9


def _paired_speedup(
    ref_fn, test_fn, k: int, *, warmup: int, rounds: int, trials: int = 3
) -> tuple[float, TimingStats, TimingStats]:
    """Per-column speedup of *test_fn* (k columns) over *ref_fn* (one).

    Samples alternate ref/test within each round, so both sides of the
    ratio see the same machine state — a throttling event or a noisy
    neighbour shifts numerator and denominator together instead of
    producing a phantom slowdown.  The ratio of per-side minima is taken
    per trial and the best of up to *trials* trials wins (stopping early
    once comfortably above break-even): a lower-bound estimator for a
    lower-bound guard.

    Returns ``(speedup, ref_stats, test_stats)`` of the best trial.
    """
    best = None
    for _ in range(max(trials, 1)):
        for _ in range(max(warmup, 1)):
            ref_fn()
            test_fn()
        ref_s, test_s = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            ref_fn()
            ref_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            test_fn()
            test_s.append(time.perf_counter() - t0)
        trial = (
            k * min(ref_s) / min(test_s),
            TimingStats(tuple(ref_s)),
            TimingStats(tuple(test_s)),
        )
        if best is None or trial[0] > best[0]:
            best = trial
        if best[0] >= 1.10:
            break
    return best


def _block_model_derived(A: CSRMatrix, k: int, speedup: float) -> dict:
    """Measured block speedup next to the code-balance prediction."""
    model = block_speedup(A.nnz / A.nrows, k)
    return {
        "speedup_vs_spmv": speedup,
        "model_speedup": model,
        "model_fraction": speedup / model,
    }


def _kernel_benches(
    A: CSRMatrix, rng: np.random.Generator, *, warmup: int, repeat: int
) -> list[BenchResult]:
    base = {"nrows": A.nrows, "nnz": A.nnz}
    x = rng.standard_normal(A.ncols)
    y = np.empty(A.nrows)
    results = []
    for name, fn, params in (
        ("spmv", lambda: spmv(A, x), base),
        ("spmv-out", lambda: spmv(A, x, out=y), {**base, "preallocated": True}),
    ):
        stats = time_callable(fn, warmup=warmup, repeat=repeat)
        results.append(
            BenchResult(
                name=name, group="kernel", warmup=warmup, repeat=repeat,
                seconds=stats, params=params,
                derived={"gflops": _gflops(A.nnz, 1, stats.min)},
            )
        )
    rounds = max(repeat, 7)
    for k in BLOCK_WIDTHS:
        X = rng.standard_normal((A.ncols, k))
        Y = np.empty((A.nrows, k))
        speedup, _ref, stats = _paired_speedup(
            lambda: spmv(A, x),
            lambda: spmm(A, X, out=Y),
            k, warmup=warmup, rounds=rounds,
        )
        results.append(
            BenchResult(
                name=f"spmm-k{k}", group="kernel", warmup=warmup, repeat=rounds,
                seconds=stats, params={**base, "k": k},
                derived={
                    "gflops": _gflops(A.nnz, k, stats.min),
                    "seconds_per_column": stats.min / k,
                    # > 1 once the matrix stream amortises over columns
                    **_block_model_derived(A, k, speedup),
                },
            )
        )
    results += _registry_benches(A, rng, warmup=warmup, rounds=rounds)
    return results


def _check_registered_kernel(spec, A: CSRMatrix, op, X: np.ndarray) -> None:
    """Correctness gate: a registered kernel is never timed unverified.

    ``exact`` kernels must match the CSR reference bit for bit; the rest
    to tight relative tolerance.  A failure raises — a wrong kernel in
    the benchmark table would be worse than a missing one.
    """
    x = X[:, 0]
    pairs = (
        ("spmv", spec.spmv(op, x), spmv(A, x)),
        ("spmm", spec.spmm(op, X), spmm(A, X)),
    )
    for name, got, ref in pairs:
        if spec.exact:
            ok = np.array_equal(got, ref)
        else:
            ok = np.allclose(got, ref, rtol=1e-10, atol=1e-13)
        if not ok:
            raise AssertionError(
                f"registered kernel {spec.key!r} disagrees with the CSR "
                f"reference on {name} (exact={spec.exact}); refusing to "
                f"benchmark an incorrect kernel"
            )


def _registry_benches(
    A: CSRMatrix, rng: np.random.Generator, *, warmup: int, rounds: int
) -> list[BenchResult]:
    """Benchmark every registered non-default kernel against CSR spmv."""
    x = rng.standard_normal(A.ncols)
    results = []
    for key in available_kernels():
        spec = get_kernel(key)
        if spec.key == "csr/reference":
            continue  # the reference is the spmv/spmm-k* rows above
        op = build_operator(spec, A)
        _check_registered_kernel(spec, A, op, rng.standard_normal((A.ncols, 4)))
        base = {
            "nrows": A.nrows, "nnz": A.nnz,
            "format": spec.format, "variant": spec.variant, "exact": spec.exact,
        }
        pad = getattr(op, "pad_factor", None)
        if pad is not None:
            base["pad_factor"] = pad
        y = np.empty(A.nrows)
        speedup, _ref, stats = _paired_speedup(
            lambda: spmv(A, x),
            lambda: spec.spmv(op, x, out=y),
            1, warmup=warmup, rounds=rounds,
        )
        results.append(
            BenchResult(
                name=f"{spec.format}-spmv", group="kernel",
                warmup=warmup, repeat=rounds, seconds=stats, params=base,
                derived={
                    "gflops": _gflops(A.nnz, 1, stats.min),
                    "speedup_vs_spmv": speedup,
                },
            )
        )
        for k in BLOCK_WIDTHS[1:]:
            X = rng.standard_normal((A.ncols, k))
            Y = np.empty((A.nrows, k))
            speedup, _ref, stats = _paired_speedup(
                lambda: spmv(A, x),
                lambda: spec.spmm(op, X, out=Y),
                k, warmup=warmup, rounds=rounds,
            )
            results.append(
                BenchResult(
                    name=f"{spec.format}-spmm-k{k}", group="kernel",
                    warmup=warmup, repeat=rounds, seconds=stats,
                    params={**base, "k": k},
                    derived={
                        "gflops": _gflops(A.nnz, k, stats.min),
                        "seconds_per_column": stats.min / k,
                        **_block_model_derived(A, k, speedup),
                    },
                )
            )
    return results


def kernel_guard(results: list[BenchResult]) -> list[str]:
    """Assert the block-kernel speedups that PR 6 fixed never regress.

    For every ``spmm-k*`` result measured on at least
    :data:`KERNEL_GUARD_MIN_ROWS` rows: k = 1 must reach per-column
    parity with spmv (``>= 1.0`` — the degenerate batch is never a
    regression) and k > 1 must beat it strictly (``> 1.0`` — batching
    must amortise the matrix stream, the inversion the old ``(nnz, k)``
    broadcast kernel caused).  Returns the names it enforced; raises
    :class:`AssertionError` on violation.
    """
    enforced = []
    for r in results:
        if r.group != "kernel" or not r.name.startswith("spmm-k"):
            continue
        if r.params.get("nrows", 0) < KERNEL_GUARD_MIN_ROWS:
            continue
        k = r.params["k"]
        speedup = r.derived["speedup_vs_spmv"]
        if (speedup < 1.0) if k == 1 else (speedup <= 1.0):
            bound = ">= 1.0" if k == 1 else "> 1.0"
            raise AssertionError(
                f"{r.name}: per-column speedup_vs_spmv is {speedup:.3f} "
                f"(guard: {bound}); the block kernel is slower per column "
                f"than k separate spmv calls — the regression the fused "
                f"spmm kernel exists to prevent"
            )
        enforced.append(r.name)
    return enforced


def _distributed_benches(
    A: CSRMatrix,
    rng: np.random.Generator,
    *,
    nranks: int,
    scheme: str,
    warmup: int,
    repeat: int,
) -> list[BenchResult]:
    base = {"nrows": A.nrows, "nnz": A.nnz, "nranks": nranks, "scheme": scheme}
    x = rng.standard_normal(A.ncols)
    results = []
    stats = time_callable(
        lambda: distributed_spmv(A, x, nranks, scheme=scheme),
        warmup=warmup, repeat=repeat,
    )
    results.append(
        BenchResult(
            name="distributed-spmv", group="distributed",
            warmup=warmup, repeat=repeat, seconds=stats, params=base,
            derived={"gflops": _gflops(A.nnz, 1, stats.min)},
        )
    )
    single_min = stats.min
    for k in BLOCK_WIDTHS:
        X = rng.standard_normal((A.ncols, k))
        stats = time_callable(
            lambda: distributed_spmm(A, X, nranks, scheme=scheme),
            warmup=warmup, repeat=repeat,
        )
        results.append(
            BenchResult(
                name=f"distributed-spmm-k{k}", group="distributed",
                warmup=warmup, repeat=repeat, seconds=stats,
                params={**base, "k": k},
                derived={
                    "gflops": _gflops(A.nnz, k, stats.min),
                    "seconds_per_column": stats.min / k,
                    "speedup_vs_spmv": k * single_min / stats.min,
                },
            )
        )
    return results


def _program_overhead_bench(
    rng: np.random.Generator, *, warmup: int, repeat: int
) -> list[BenchResult]:
    """Guard: sweep-interpreter indirection on the single-rank spmv hot path.

    Every multiply now runs through :func:`repro.program.execute_sweep`,
    which adds a fixed per-sweep dispatch cost (op loop + handler
    lookups).  Differencing two large-matrix timings drowns that cost in
    memory-traffic noise, so it is measured where it is visible — a
    single-rank engine on a tiny matrix, interpreter vs. the same
    arithmetic hand-inlined — and reported relative to a hot-path spmv
    at the quick bench size.  The guard asserts the ratio stays below
    ``GUARD``; a regression here means the interpreter grew a per-op
    cost it must not have.
    """
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import DistributedSpMVM
    from repro.mpilite.comm import CollectiveState, Comm
    from repro.mpilite.router import Router
    from repro.sparse.spmv import spmv_add

    GUARD = 0.05
    tiny = random_sparse(64, nnzr=5.0, seed=11, ensure_diagonal=True)
    thalo = cached_halo_plan(tiny, 1, with_matrices=True).ranks[0]
    tengine = DistributedSpMVM(Comm(0, Router(1), CollectiveState(1)), thalo)
    tx = rng.standard_normal(tiny.ncols)

    def inlined():
        # the pre-IR hot path: the same arithmetic with no op loop
        y = spmv(thalo.A_local, tx)
        spmv_add(thalo.A_remote, tengine.halo_view(tengine.sweep_buffers(tx)[0]), out=y)
        return y

    micro_repeat = max(repeat, 200)
    interp = time_callable(
        lambda: tengine.multiply(tx, "no_overlap"), warmup=warmup, repeat=micro_repeat
    )
    inline = time_callable(inlined, warmup=warmup, repeat=micro_repeat)
    indirection = max(0.0, interp.min - inline.min)

    hot = random_sparse(4_000, nnzr=15.0, seed=11, ensure_diagonal=True)
    hhalo = cached_halo_plan(hot, 1, with_matrices=True).ranks[0]
    hengine = DistributedSpMVM(Comm(0, Router(1), CollectiveState(1)), hhalo)
    hx = rng.standard_normal(hot.ncols)
    hot_stats = time_callable(
        lambda: hengine.multiply(hx, "no_overlap"), warmup=max(warmup, 1), repeat=max(repeat, 5)
    )
    ratio = indirection / hot_stats.min
    if ratio >= GUARD:
        raise AssertionError(
            f"sweep-interpreter indirection is {ratio:.1%} of the single-rank "
            f"spmv hot path (guard: < {GUARD:.0%}); the interpreter grew a "
            f"per-op cost the IR refactor promised not to add"
        )
    return [
        BenchResult(
            name="program-overhead", group="program",
            warmup=warmup, repeat=micro_repeat, seconds=interp,
            params={
                "nrows": hot.nrows, "nnz": hot.nnz, "tiny_nrows": tiny.nrows,
                "scheme": "no_overlap", "nranks": 1,
            },
            derived={
                "gflops": _gflops(hot.nnz, 1, hot_stats.min),
                "indirection_seconds": indirection,
                "hot_path_seconds": hot_stats.min,
                "overhead_vs_hot_path": ratio,
                "guard_max": GUARD,
            },
        )
    ]


def _serve_benches(
    A: CSRMatrix,
    rng: np.random.Generator,
    *,
    nranks: int,
    scheme: str,
    warmup: int,
    repeat: int,
) -> list[BenchResult]:
    """The serve group: cold vs. warm latency, coalesced throughput.

    *Cold* builds a fresh model (bypassing every process-wide cache)
    and serves one request through a new service; *warm* reuses one
    persistent service for every request — the ratio is the amortised
    one-time cost the ``repro.serve`` tentpole exists to capture.  The
    coalesced bench first serves 16 right-hand sides as independent
    width-1 requests, then re-serves them as coalesced spmm batches and
    asserts bit-identity between the two before reporting throughput —
    a wrong fast path is worse than no fast path.
    """
    from repro.serve import SolverService, build_model

    base = {"nrows": A.nrows, "nnz": A.nnz, "nranks": nranks, "scheme": scheme}
    x = rng.standard_normal(A.ncols)

    def cold() -> None:
        model = build_model(A, nranks, scheme=scheme, reuse_caches=False)
        with SolverService(model, name="bench-cold") as svc:
            svc.solve(x)

    cold_stats = time_callable(cold, warmup=1, repeat=max(repeat, 3))
    results = [
        BenchResult(
            name="serve-cold", group="serve",
            warmup=1, repeat=max(repeat, 3), seconds=cold_stats, params=base,
            derived={"gflops": _gflops(A.nnz, 1, cold_stats.min)},
        )
    ]

    model = build_model(A, nranks, scheme=scheme)
    n_req = 16
    max_batch = 8
    with SolverService(model, max_batch=max_batch, name="bench-warm") as service:
        warm_repeat = max(repeat, 10)
        warm_stats = time_callable(
            lambda: service.solve(x), warmup=max(warmup, 2), repeat=warm_repeat
        )
        warm_speedup = cold_stats.min / warm_stats.min
        results.append(
            BenchResult(
                name="serve-warm", group="serve",
                warmup=max(warmup, 2), repeat=warm_repeat,
                seconds=warm_stats, params=base,
                derived={
                    "gflops": _gflops(A.nnz, 1, warm_stats.min),
                    "warm_speedup_vs_cold": warm_speedup,
                    "guard_min": SERVE_WARM_SPEEDUP_MIN,
                },
            )
        )

        Xs = rng.standard_normal((n_req, A.ncols))
        refs = [service.solve(Xs[i]) for i in range(n_req)]
        walls, widths = [], []
        for _ in range(max(repeat, 3)):
            before = len(service.stats["batch_widths"])
            t0 = time.perf_counter()
            with service.hold():
                reqs = [service.submit(Xs[i]) for i in range(n_req)]
            ys = [service.gather(r) for r in reqs]
            walls.append(time.perf_counter() - t0)
            widths = service.stats["batch_widths"][before:]
            for i in range(n_req):
                if not np.array_equal(ys[i], refs[i]):
                    raise AssertionError(
                        f"coalesced response {i} is not bit-identical to the "
                        f"independent width-1 request for the same RHS; "
                        f"refusing to report throughput of a wrong fast path"
                    )
        coalesced_stats = TimingStats(tuple(walls))
        results.append(
            BenchResult(
                name="serve-coalesced", group="serve",
                warmup=0, repeat=len(walls), seconds=coalesced_stats,
                params={**base, "requests": n_req, "max_batch": max_batch},
                derived={
                    "gflops": _gflops(A.nnz, n_req, coalesced_stats.min),
                    "throughput_rps": n_req / coalesced_stats.min,
                    "mean_batch_width": (sum(widths) / len(widths)) if widths else 0.0,
                    "speedup_vs_warm": n_req * warm_stats.min / coalesced_stats.min,
                    "bit_identical": 1.0,
                },
            )
        )
    return results


def _sanitizer_benches(
    A: CSRMatrix,
    rng: np.random.Generator,
    *,
    nranks: int,
    scheme: str,
    warmup: int,
    repeat: int,
) -> list[BenchResult]:
    """The check group: thread-sanitizer overhead on a task-mode sweep.

    Interleaved like :func:`_paired_speedup` — plain and instrumented
    sweeps alternate within each round so machine noise moves both
    sides of the ratio — but taking the *lowest* ratio of up to three
    trials (a lower-bound estimator for an upper-bound guard, stopping
    early once comfortably under the bound).  Every instrumented sweep
    runs a fresh :class:`~repro.check.ThreadSanitizer` (thread idents
    are recycled across joins), and a single reported race fails the
    bench outright: a racy sweep's timing is not an overhead figure.
    """
    from repro.check.threads import ThreadSanitizer

    x = rng.standard_normal(A.ncols)
    sanitizers: list[ThreadSanitizer] = []

    def plain() -> None:
        distributed_spmv(A, x, nranks, scheme=scheme)

    def instrumented() -> None:
        san = ThreadSanitizer()
        sanitizers.append(san)
        distributed_spmv(A, x, nranks, scheme=scheme, sanitizer=san)

    rounds = max(repeat, 5)
    best = None
    for _ in range(3):
        for _ in range(max(warmup, 1)):
            plain()
            instrumented()
        plain_s, instr_s = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            plain()
            plain_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            instrumented()
            instr_s.append(time.perf_counter() - t0)
        trial = (
            min(instr_s) / min(plain_s),
            TimingStats(tuple(plain_s)),
            TimingStats(tuple(instr_s)),
        )
        if best is None or trial[0] < best[0]:
            best = trial
        if best[0] <= 1.05:
            break
    races = [f for san in sanitizers for f in san.findings]
    if races:
        raise AssertionError(
            f"sanitizer-overhead: the clean task-mode sweep reported "
            f"{len(races)} thread-race finding(s) — first: "
            f"{races[0].describe()}; refusing to report overhead of a racy run"
        )
    overhead, plain_stats, instr_stats = best
    return [
        BenchResult(
            name="sanitizer-overhead", group="check",
            warmup=max(warmup, 1), repeat=rounds, seconds=instr_stats,
            params={"nrows": A.nrows, "nnz": A.nnz, "nranks": nranks, "scheme": scheme},
            derived={
                "gflops": _gflops(A.nnz, 1, instr_stats.min),
                "plain_seconds": plain_stats.min,
                "overhead_vs_plain": overhead,
                "events_observed": float(sum(s.events_observed for s in sanitizers)),
                "guard_max": SANITIZER_OVERHEAD_MAX,
            },
        )
    ]


def sanitizer_guard(results: list[BenchResult]) -> list[str]:
    """Assert attaching the thread sanitizer stays affordable.

    The ``sanitizer-overhead`` result's instrumented/plain ratio must
    not exceed :data:`SANITIZER_OVERHEAD_MAX` — the contract that the
    sanitizer remains cheap enough to leave on in every test and CI
    check run.  Enforced only at :data:`SANITIZER_GUARD_MIN_ROWS` rows
    and above (sub-guard sweeps are reported, never gated).  Returns
    the names enforced; raises :class:`AssertionError` on violation.
    """
    enforced = []
    for r in results:
        if r.group != "check" or r.name != "sanitizer-overhead":
            continue
        if r.params.get("nrows", 0) < SANITIZER_GUARD_MIN_ROWS:
            continue
        overhead = r.derived["overhead_vs_plain"]
        if overhead > SANITIZER_OVERHEAD_MAX:
            raise AssertionError(
                f"sanitizer-overhead: instrumented task-mode sweep costs "
                f"{overhead:.3f}x the plain sweep (guard: <= "
                f"{SANITIZER_OVERHEAD_MAX}); the per-event bookkeeping grew "
                f"beyond what an always-on sanitizer may charge"
            )
        enforced.append(r.name)
    return enforced


def _solver_benches(
    rng: np.random.Generator,
    *,
    nranks: int,
    quick: bool,
    warmup: int,
    repeat: int,
) -> list[BenchResult]:
    """The solver group: classic vs communication-avoiding CG, SPMD.

    One Poisson system, two SPMD solves per sample: classic CG (one
    exchange + three collectives per iteration) and :func:`sstep_cg`
    (one 2-sweep pipelined matrix-powers exchange + ONE fused collective
    per outer step of two iterations).  Communication is *counted* on
    the operators' ``counters`` — deterministic, so the economics guard
    can be strict — while wall times interleave classic/s-step samples
    per round so machine noise moves both sides of the ratio.  Both
    solvers must converge and agree on the solution before any figure is
    reported.
    """
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import gather_vector, scatter_vector
    from repro.matrices import poisson_2d
    from repro.mpilite.world import PerRank, run_spmd
    from repro.solvers import DistributedOperator, conjugate_gradient, sstep_cg

    grid = 32 if quick else 63
    A = poisson_2d(grid)
    plan = cached_halo_plan(A, nranks, with_matrices=True)
    b = rng.standard_normal(A.nrows)
    tol, max_iter = 1e-8, 3000
    base = {"nrows": A.nrows, "nnz": A.nnz, "nranks": nranks, "grid": grid}

    def solve(kind: str):
        def fn(comm, halo):
            op = DistributedOperator(comm, halo, "task_mode")
            bl = scatter_vector(b, plan.partition, comm.rank)
            if kind == "classic":
                res = conjugate_gradient(op, bl, tol=tol, max_iter=max_iter)
            else:
                res = sstep_cg(op, bl, tol=tol, max_iter=max_iter)
            return res.x, res.iterations, res.converged, dict(op.counters)
        return run_spmd(nranks, fn, PerRank(plan.ranks))

    classic = solve("classic")
    sstep = solve("sstep")
    for name, out in (("classic", classic), ("sstep", sstep)):
        if not all(o[2] for o in out):
            raise AssertionError(
                f"solver-cg-{name} did not converge on the Poisson system; "
                f"refusing to report communication economics of a failed solve"
            )
    x_classic = gather_vector([o[0] for o in classic])
    x_sstep = gather_vector([o[0] for o in sstep])
    if not np.allclose(x_sstep, x_classic, rtol=1e-4, atol=1e-4):
        raise AssertionError(
            "solver-cg-sstep solution disagrees with classic CG beyond the "
            "convergence tolerance; a faster wrong solver is not a result"
        )

    def economics(out) -> dict[str, float]:
        iters = max(out[0][1], 1)
        exchanges = out[0][3]["exchanges"]  # identical on every rank
        reductions = out[0][3]["reductions"]
        messages = sum(o[3]["messages"] for o in out)
        return {
            "iterations": float(out[0][1]),
            "exchanges_per_iteration": exchanges / iters,
            "reductions_per_iteration": reductions / iters,
            "messages_per_iteration": messages / iters,
            "comm_posts_per_iteration": (exchanges + reductions) / iters,
        }

    eco_classic, eco_sstep = economics(classic), economics(sstep)

    rounds = max(repeat, 3)
    best = None
    for _ in range(3):
        for _ in range(max(warmup, 1)):
            solve("classic")
            solve("sstep")
        classic_s, sstep_s = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            solve("classic")
            classic_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            solve("sstep")
            sstep_s.append(time.perf_counter() - t0)
        trial = (
            min(sstep_s) / min(classic_s),
            TimingStats(tuple(classic_s)),
            TimingStats(tuple(sstep_s)),
        )
        if best is None or trial[0] < best[0]:
            best = trial
        if best[0] <= 1.05:
            break
    ratio, classic_stats, sstep_stats = best
    return [
        BenchResult(
            name="solver-cg-classic", group="solver",
            warmup=max(warmup, 1), repeat=rounds, seconds=classic_stats,
            params=base,
            derived={
                "gflops": _gflops(A.nnz, 1, classic_stats.min / max(eco_classic["iterations"], 1)),
                **eco_classic,
            },
        ),
        BenchResult(
            name="solver-cg-sstep", group="solver",
            warmup=max(warmup, 1), repeat=rounds, seconds=sstep_stats,
            params=base,
            derived={
                "gflops": _gflops(A.nnz, 1, sstep_stats.min / max(eco_sstep["iterations"], 1)),
                **eco_sstep,
                "classic_reductions_per_iteration": eco_classic["reductions_per_iteration"],
                "classic_messages_per_iteration": eco_classic["messages_per_iteration"],
                "classic_comm_posts_per_iteration": eco_classic["comm_posts_per_iteration"],
                "classic_iterations": eco_classic["iterations"],
                "time_ratio_vs_classic": ratio,
                "solutions_match": 1.0,
                "guard_ratio_max": SOLVER_SPEED_RATIO_MAX,
            },
        ),
    ]


def solver_guard(results: list[BenchResult]) -> list[str]:
    """Assert the communication-avoiding CG actually avoids communication.

    On the ``solver-cg-sstep`` result: strictly fewer collective
    reductions per iteration than classic CG, no more point-to-point
    halo messages per iteration, strictly fewer total communication
    posts per iteration, and the solutions-match marker present (the
    bench raises before producing a result otherwise).  These are
    counted quantities — deterministic, so violations are real.  The
    interleaved wall-time ratio must additionally stay under
    :data:`SOLVER_SPEED_RATIO_MAX` at :data:`SOLVER_GUARD_MIN_ROWS` rows
    and above.  Returns the names enforced; raises
    :class:`AssertionError` on violation.
    """
    enforced = []
    for r in results:
        if r.group != "solver" or r.name != "solver-cg-sstep":
            continue
        d = r.derived
        if d.get("solutions_match") != 1.0:
            raise AssertionError(
                "solver-cg-sstep: missing the solutions-match marker; the "
                "s-step path was benchmarked without being verified"
            )
        if d["reductions_per_iteration"] >= d["classic_reductions_per_iteration"]:
            raise AssertionError(
                f"solver-cg-sstep: {d['reductions_per_iteration']:.3f} "
                f"reductions/iteration is not strictly below classic CG's "
                f"{d['classic_reductions_per_iteration']:.3f}; the fused "
                f"collective stopped fusing"
            )
        if d["messages_per_iteration"] > d["classic_messages_per_iteration"] + 1e-9:
            raise AssertionError(
                f"solver-cg-sstep: {d['messages_per_iteration']:.3f} halo "
                f"messages/iteration exceeds classic CG's "
                f"{d['classic_messages_per_iteration']:.3f}; the matrix-powers "
                f"chain grew extra exchanges"
            )
        if d["comm_posts_per_iteration"] >= d["classic_comm_posts_per_iteration"]:
            raise AssertionError(
                f"solver-cg-sstep: {d['comm_posts_per_iteration']:.3f} "
                f"communication posts/iteration is not strictly below classic "
                f"CG's {d['classic_comm_posts_per_iteration']:.3f} — the "
                f"communication-avoiding variant stopped avoiding communication"
            )
        if r.params.get("nrows", 0) >= SOLVER_GUARD_MIN_ROWS:
            ratio = d["time_ratio_vs_classic"]
            if ratio > SOLVER_SPEED_RATIO_MAX:
                raise AssertionError(
                    f"solver-cg-sstep: wall time is {ratio:.3f}x classic CG "
                    f"(guard: <= {SOLVER_SPEED_RATIO_MAX}) on the "
                    f"latency-dominated configuration; the pipelined path "
                    f"must never lose outright"
                )
        enforced.append(r.name)
    return enforced


def _workload_benches() -> list[BenchResult]:
    """The workload group: reference-trace policy studies + contention.

    Unlike the other groups these time a *simulation*, so the wall
    seconds are informational (one sample per study); the quantities
    under guard are simulated outcomes and fully deterministic.  Three
    results: the scheduler comparison on the fat tree (where runtimes
    are policy-independent, so utilisation differences are pure
    packing), the placement comparison on the loaded torus, and the
    solo-vs-co-running link-contention probe — the same reference
    configurations as ``repro workload --smoke``
    (:mod:`repro.experiments.workload`).
    """
    from repro.experiments.workload import (
        placement_cluster,
        run_contention_probe,
        scheduling_cluster,
    )
    from repro.workload import compare_policies, reference_trace

    trace = reference_trace()
    base = {"jobs": len(trace), "nodes": 16, "trace": "reference"}

    t0 = time.perf_counter()
    sched = compare_policies(
        trace, scheduling_cluster, schedulers=("fcfs", "easy"), placements=("first-fit",)
    )
    t_sched = time.perf_counter() - t0
    fcfs = sched[("fcfs", "first-fit")]
    easy = sched[("easy", "first-fit")]
    results = [
        BenchResult(
            name="workload-scheduling", group="workload",
            warmup=0, repeat=1, seconds=TimingStats((t_sched,)),
            params={**base, "cluster": "westmere-fat-tree"},
            derived={
                "util_fcfs": fcfs.utilisation(),
                "util_easy": easy.utilisation(),
                "makespan_fcfs": fcfs.makespan,
                "makespan_easy": easy.makespan,
                "mean_bsld_fcfs": fcfs.summary()["mean_slowdown"],
                "mean_bsld_easy": easy.summary()["mean_slowdown"],
            },
        )
    ]

    t0 = time.perf_counter()
    placed = compare_policies(
        trace, placement_cluster,
        schedulers=("easy",), placements=("random", "node-aware"), seed=11,
    )
    t_place = time.perf_counter() - t0
    rand = placed[("easy", "random")]
    aware = placed[("easy", "node-aware")]
    results.append(
        BenchResult(
            name="workload-placement", group="workload",
            warmup=0, repeat=1, seconds=TimingStats((t_place,)),
            params={**base, "cluster": "cray-torus-loaded"},
            derived={
                "p99_random": rand.summary()["p99"],
                "p99_node_aware": aware.summary()["p99"],
                "wire_bytes_random": rand.interconnect_bytes(),
                "wire_bytes_node_aware": aware.interconnect_bytes(),
                "hop_sum_random": rand.summary()["hop_sum"],
                "hop_sum_node_aware": aware.summary()["hop_sum"],
            },
        )
    )

    t0 = time.perf_counter()
    alone, shared = run_contention_probe()
    t_cont = time.perf_counter() - t0
    results.append(
        BenchResult(
            name="workload-contention", group="workload",
            warmup=0, repeat=1, seconds=TimingStats((t_cont,)),
            params={"jobs": 2, "nodes": 4, "cluster": "cray-torus-loaded"},
            derived={
                "bw_alone": alone.effective_bandwidth,
                "bw_shared_min": min(r.effective_bandwidth for r in shared),
                "bw_shared_max": max(r.effective_bandwidth for r in shared),
            },
        )
    )
    return results


def workload_guard(results: list[BenchResult]) -> list[str]:
    """Assert the workload subsystem's reference-trace properties.

    EASY backfilling must achieve strictly higher utilisation than FCFS
    on the fat tree (where runtimes are policy-independent); node-aware
    placement must never move more hop-weighted interconnect bytes than
    random and must beat it on p99 response latency on the loaded
    torus; and a job co-running with a communication-heavy twin must
    observe strictly lower effective bandwidth than the same job alone.
    Returns the names enforced; raises :class:`AssertionError` on
    violation.  No-op when the workload group was skipped (quick mode).
    """
    enforced = []
    for r in results:
        if r.group != "workload":
            continue
        if r.name == "workload-scheduling":
            u_f, u_e = r.derived["util_fcfs"], r.derived["util_easy"]
            if u_e <= u_f:
                raise AssertionError(
                    f"workload-scheduling: EASY utilisation {u_e:.4f} does not "
                    f"beat FCFS {u_f:.4f} on the reference trace; backfilling "
                    f"stopped filling the head-of-line blocking window"
                )
            enforced.append(r.name)
        elif r.name == "workload-placement":
            b_r = r.derived["wire_bytes_random"]
            b_a = r.derived["wire_bytes_node_aware"]
            if b_a > b_r:
                raise AssertionError(
                    f"workload-placement: node-aware moved {b_a:.3e} B over the "
                    f"wire vs random's {b_r:.3e} B; compact allocations must "
                    f"never increase hop-weighted inter-node traffic"
                )
            p_r = r.derived["p99_random"]
            p_a = r.derived["p99_node_aware"]
            if p_a >= p_r:
                raise AssertionError(
                    f"workload-placement: node-aware p99 latency {p_a:.3e} s is "
                    f"not below random's {p_r:.3e} s on the loaded torus; the "
                    f"topology knowledge stopped paying for itself"
                )
            enforced.append(r.name)
        elif r.name == "workload-contention":
            solo = r.derived["bw_alone"]
            worst = r.derived["bw_shared_max"]
            if worst >= solo:
                raise AssertionError(
                    f"workload-contention: a co-running job saw "
                    f"{worst:.3e} B/s, not below the solo {solo:.3e} B/s; "
                    f"jobs are no longer sharing the torus link pool"
                )
            enforced.append(r.name)
    return enforced


def serve_guard(results: list[BenchResult]) -> list[str]:
    """Assert the build-once/serve-many contract holds.

    A warm request against the persistent service must be at least
    :data:`SERVE_WARM_SPEEDUP_MIN` times faster than a cold
    build-and-serve, and the coalesced bench must have proven
    bit-identity (it raises before producing a result otherwise, so
    here it is checked as presence of the marker).  Sub-guard matrices
    (:data:`SERVE_GUARD_MIN_ROWS`) are reported but not enforced.
    Returns the names enforced; raises :class:`AssertionError` on
    violation.
    """
    enforced = []
    for r in results:
        if r.group != "serve":
            continue
        if r.params.get("nrows", 0) < SERVE_GUARD_MIN_ROWS:
            continue
        if r.name == "serve-warm":
            speedup = r.derived["warm_speedup_vs_cold"]
            if speedup < SERVE_WARM_SPEEDUP_MIN:
                raise AssertionError(
                    f"serve-warm: warm_speedup_vs_cold is {speedup:.2f} "
                    f"(guard: >= {SERVE_WARM_SPEEDUP_MIN}); a warm request "
                    f"should amortise away the one-time build cost — the "
                    f"service is rebuilding state it was meant to keep"
                )
            enforced.append(r.name)
        elif r.name == "serve-coalesced":
            if r.derived.get("bit_identical") != 1.0:
                raise AssertionError(
                    "serve-coalesced: missing the bit-identity marker; the "
                    "coalesced path was benchmarked without being verified"
                )
            enforced.append(r.name)
    return enforced


def spmvm_suite(
    *,
    quick: bool = False,
    nrows: int | None = None,
    nranks: int | None = None,
    scheme: str = "task_mode",
    seed: int = 7,
    workload: bool | None = None,
) -> list[BenchResult]:
    """Run the full spMVM benchmark suite and return its results.

    ``quick`` shrinks the matrix and the sample counts for CI smoke
    runs; the schema and the result names are identical in both modes.
    ``nrows``/``nranks`` override the mode defaults (used by the tests
    to keep runtimes trivial).  ``workload`` adds the reference-trace
    workload studies (~30 s of simulation, policy-guarded); it defaults
    to ``not quick`` — quick/CI runs get the same assertions from the
    dedicated ``repro workload --smoke`` gate instead.
    """
    if nrows is None:
        nrows = 4_000 if quick else 40_000
    if nranks is None:
        nranks = 2 if quick else 4
    warmup, repeat = (1, 3) if quick else (3, 7)
    rng = np.random.default_rng(seed)
    A = random_sparse(nrows, nnzr=15.0, seed=seed, ensure_diagonal=True)
    results = _kernel_benches(A, rng, warmup=warmup, repeat=repeat)
    results += _distributed_benches(
        A, rng, nranks=nranks, scheme=scheme, warmup=warmup, repeat=repeat
    )
    results += _program_overhead_bench(rng, warmup=warmup, repeat=repeat)
    results += _serve_benches(
        A, rng, nranks=nranks, scheme=scheme, warmup=warmup, repeat=repeat
    )
    results += _sanitizer_benches(
        A, rng, nranks=nranks, scheme=scheme, warmup=warmup, repeat=repeat
    )
    results += _solver_benches(
        rng, nranks=nranks, quick=quick, warmup=warmup, repeat=repeat
    )
    if workload is None:
        workload = not quick
    if workload:
        results += _workload_benches()
    kernel_guard(results)
    serve_guard(results)
    sanitizer_guard(results)
    solver_guard(results)
    workload_guard(results)
    return results
