"""Command-line interface: regenerate any paper figure/table from a shell.

Usage::

    python -m repro list
    python -m repro fig1 --scale small
    python -m repro fig3
    python -m repro fig5 --scale medium --nodes 1,2,4,8,16,24,32
    python -m repro probe
    python -m repro all --scale small          # everything, quick mode
    python -m repro matrix HMeP --scale tiny   # matrix inspection

Each command prints the same rendered table the benchmark suite writes
to ``benchmarks/output/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main"]


def _parse_nodes(text: str) -> tuple[int, ...]:
    try:
        nodes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid node list {text!r}") from exc
    if not nodes or any(n <= 0 for n in nodes):
        raise argparse.ArgumentTypeError("node counts must be positive integers")
    return nodes


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for name, doc in (
        ("fig1", "sparsity patterns (block occupancy) of HMEp / HMeP / sAMG"),
        ("fig2", "node topologies (Westmere, Magny Cours)"),
        ("fig3", "node-level performance analysis (both panels)"),
        ("fig4", "scheme timelines (simulator Gantt charts)"),
        ("trace", "trace one simulated sweep (summary, metrics, Chrome JSON)"),
        ("fig5", "HMeP strong scaling on the Westmere cluster"),
        ("fig6", "sAMG strong scaling on the Westmere cluster"),
        ("kappa", "Sect. 2 κ determination + Eq. 2 split penalty"),
        ("kappa-predict", "predict κ from structure via the LRU cache model"),
        ("commvol", "internode communication volume vs node count"),
        ("comm-plan", "direct vs node-aware halo-exchange plan (repro.comm)"),
        ("comm-plans", "plan accounting + simulated node-aware scaling sweep"),
        ("balance", "load-balancing study (compute vs communication)"),
        ("check", "communication correctness analyzer (repro.check)"),
        ("lint", "repo-invariant AST lint (repro.check.astlint)"),
        ("probe", "Sect. 3 asynchronous-progress probe"),
        ("bench", "guard suite: kernel, program and sanitizer ratios"),
        ("serve", "persistent solver service: build once, stream requests"),
        ("workload", "multi-job cluster simulation: streams, scheduling, contention"),
        ("kernels", "the spMVM kernel and which executor computes its row sums"),
        ("matrix", "build and describe one registry matrix"),
        ("all", "run every experiment in sequence"),
    ):
        print(f"  {name:<7} {doc}")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig1

    print(run_fig1(scale=args.scale, grid=args.grid).render())
    return 0


def _cmd_fig2(_args: argparse.Namespace) -> int:
    from repro.experiments import run_fig2

    print(run_fig2().render())
    return 0


def _cmd_fig3(_args: argparse.Namespace) -> int:
    from repro.experiments import run_fig3

    print(run_fig3().render())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig4

    print(run_fig4(scale=args.scale).render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one simulated MVM sweep and export/summarize it."""
    from repro.core import simulate_spmvm
    from repro.machine.presets import westmere_cluster
    from repro.matrices import get_matrix
    from repro.obs import (
        overlap_bytes_with_phase,
        phase_summary,
        render_op_costs,
        simulation_metrics,
        write_chrome_trace,
    )

    A = get_matrix(args.matrix, args.scale).build_cached()
    r = simulate_spmvm(
        A,
        westmere_cluster(args.nodes),
        mode=args.mode,
        scheme=args.scheme,
        kappa=args.kappa,
        iterations=args.iterations,
        eager_threshold=args.eager_threshold,
        async_progress=args.async_progress,
        n_sweeps=args.sweeps,
        pipeline=not args.no_pipeline,
        trace=True,
    )
    assert r.trace is not None
    print(r.describe())
    print()
    print(phase_summary(r.trace, title=f"per-phase summary ({args.scheme})").render())
    overlap_bytes = overlap_bytes_with_phase(r.trace, "local spMVM")
    print(
        f"\nrendezvous bytes moved during the endpoints' local spMVM: "
        f"{overlap_bytes:.0f} B"
    )
    if args.per_op:
        print()
        print(render_op_costs(r.trace))
    if args.metrics:
        print()
        for name, value in sorted(simulation_metrics(r).items()):
            print(f"  {name} = {value:g}")
    if args.trace_json:
        path = write_chrome_trace(r.trace, args.trace_json)
        print(f"\nChrome trace written to {path} (open in chrome://tracing)")
    return 0


def _scaling(runner: Callable, args: argparse.Namespace) -> int:
    study = runner(
        scale=args.scale,
        node_counts=args.nodes,
        max_ranks=args.max_ranks,
        include_cray=not args.no_cray,
    )
    print(study.render())
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig5

    return _scaling(run_fig5, args)


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig6

    return _scaling(run_fig6, args)


def _cmd_kappa(_args: argparse.Namespace) -> int:
    from repro.experiments import run_kappa_table

    print(run_kappa_table().render())
    return 0


def _cmd_kappa_predict(args: argparse.Namespace) -> int:
    from repro.experiments import run_kappa_prediction

    print(run_kappa_prediction(args.scale).render())
    return 0


def _cmd_commvol(args: argparse.Namespace) -> int:
    from repro.experiments import run_comm_volume

    print(run_comm_volume(args.scale).render())
    return 0


def _cmd_comm_plan(args: argparse.Namespace) -> int:
    """Compare the direct and node-aware plan of one halo exchange."""
    from repro.comm import build_comm_plan, compare_plans
    from repro.core.halo import build_halo_plan
    from repro.core.runner import simulate_spmvm
    from repro.experiments.calibration import (
        REDUCED_EAGER_THRESHOLD,
        TORUS_MESSAGE_OVERHEAD,
        kappa_for,
    )
    from repro.machine.affinity import plan_placement, ranks_for_mode
    from repro.machine.presets import cray_xe6_cluster, westmere_cluster
    from repro.matrices import get_matrix
    from repro.sparse.partition import partition_matrix

    A = get_matrix(args.matrix, args.scale).build_cached()
    cluster = (
        cray_xe6_cluster(args.nodes, message_overhead=TORUS_MESSAGE_OVERHEAD)
        if args.network == "torus"
        else westmere_cluster(args.nodes)
    )
    nranks = ranks_for_mode(cluster, args.mode)
    if nranks > A.nrows:
        print(f"{nranks} ranks exceed the {A.nrows}-row matrix; pick fewer nodes")
        return 1
    rank_node = [p.node for p in plan_placement(cluster, args.mode)]
    halo = build_halo_plan(A, partition_matrix(A, nranks), with_matrices=False)
    cmp = compare_plans(
        build_comm_plan(halo, rank_node, "direct"),
        build_comm_plan(halo, rank_node, "node-aware"),
    )
    title = (
        f"{args.matrix}/{args.scale} on {cluster.name}, {args.mode}, "
        f"{args.nodes} nodes ({nranks} ranks)"
    )
    print(cmp.render(title=title))
    if args.simulate:
        print()
        for kind in ("direct", "node-aware"):
            r = simulate_spmvm(
                A, cluster,
                mode=args.mode,
                scheme=args.scheme,
                kappa=kappa_for(args.matrix),
                comm_plan=kind,
                eager_threshold=REDUCED_EAGER_THRESHOLD,
            )
            print(f"  {kind:>10}: {r.describe()}")
    return 0


def _cmd_comm_plans(args: argparse.Namespace) -> int:
    from repro.experiments import run_comm_plans

    print(
        run_comm_plans(
            args.scale,
            sweep_nodes=args.sweep_nodes,
            include_sweep=not args.no_sweep,
        ).render()
    )
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.experiments import run_load_balance

    print(run_load_balance(args.scale).render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the guard suite: report every result, then gate.

    The guards run last, so a violated ratio still leaves its number on
    the terminal.  Exit 1 on any violation, one ``FAIL`` line each.
    """
    from repro.bench import spmvm_suite
    from repro.bench.suite import guard_failures
    from repro.sparse import native

    print(f"csr row sums: {native.status().describe()}")
    results = spmvm_suite(quick=args.quick, seed=args.seed)
    for r in results:
        print(r.describe())
    failures = guard_failures(results)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Is the tree clean?  One gate (:func:`repro.check.check_spmvm`).

    Static pass (plan lint of both comm plans, lint of every sweep
    program the builders can emit, the repo-invariant AST lint), then
    every scheme x comm plan x {vector, block} and one concurrent
    solver-service session, each run under the rank-level recorder and
    the thread-level sanitizer at once and cross-checked against the
    serial kernel.  Exit 1 on any finding.

    ``--seed-bug NAME`` instead runs a fixture containing exactly that
    bug and exits 0 only if the matching detector fired — the live
    demonstration that the analyzer detects what it claims to.
    """
    from repro.check import SEED_BUGS, check_spmvm, run_seed_bug

    if args.seed_bug is not None:
        try:
            fired, report = run_seed_bug(args.seed_bug)
        except ValueError as exc:
            print(f"repro check: {exc}", file=sys.stderr)
            return 2
        expected_kind = SEED_BUGS[args.seed_bug][0]
        print(report.render(title=f"seed-bug {args.seed_bug} (expect {expected_kind})"))
        if fired:
            print(f"OK: the {expected_kind} detector fired")
            return 0
        print(f"FAIL: the {expected_kind} detector stayed silent")
        return 2

    report = check_spmvm(
        matrix=args.matrix,
        scale=args.scale,
        nranks=args.nranks,
        ranks_per_node=args.ranks_per_node,
    )
    print(report.render(title=f"repro check: {args.matrix}/{args.scale}, {report.context}"))
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo-invariant AST lint (repro.check.astlint) over a tree.

    Walks every ``*.py`` under the repro package (or ``path``) and
    applies the rule catalog — hot-path allocation, float64 discipline,
    service lock discipline, comm-thread vocabulary — reporting
    ``ast-lint`` findings with file:line provenance.  Exit 1 on any
    finding.  (``repro check`` runs the same lint over the package.)
    """
    from repro.check.astlint import ALL_RULES, get_rule, run_astlint

    if args.list:
        for rule in ALL_RULES:
            print(f"  {rule.name:<24} {rule.description}")
        return 0

    rules = (get_rule(args.rule),) if args.rule else None
    findings = run_astlint(args.path, rules=rules)
    scope = args.rule or f"{len(ALL_RULES)} rules"
    where = args.path or "src/repro"
    if not findings:
        print(f"ast lint ({scope} over {where}): clean")
        return 0
    print(f"ast lint ({scope} over {where}): {len(findings)} finding(s)")
    for f in findings:
        print(f"  - {f.describe()}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a request stream from a persistent solver service.

    Builds the matrix's :class:`~repro.serve.BuiltModel` once
    (optionally round-tripping it through the ``repro-model/2`` file
    given with ``--model``), keeps a worker pool alive, and fires
    ``--requests`` right-hand sides at it from ``--concurrency``
    submitter threads.  Prints build cost, latency percentiles,
    throughput, coalesced batch widths, and verifies a sample of
    responses against independent distributed spMVM runs.
    """
    from repro.matrices import get_matrix
    from repro.serve import run_request_stream

    A = get_matrix(args.matrix, args.scale).build_cached()
    report = run_request_stream(
        A,
        args.nranks,
        scheme=args.scheme,
        requests=args.requests,
        concurrency=args.concurrency,
        max_batch=args.max_batch,
        seed=args.seed,
        verify=args.verify,
        model_path=args.model,
        matrix_label=f"{args.matrix}/{args.scale}",
    )
    print(report.render())
    return 0


def _workload_smoke() -> int:
    """Run the reference-trace guards and the contention probe; exit 1 on any failure."""
    from repro.experiments.workload import run_workload_study, smoke_checks

    study = run_workload_study(n_jobs=20)
    checks = smoke_checks(study)
    print("workload smoke checks:")
    failed = 0
    for name, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name:<30} {detail}")
        failed += 0 if ok else 1
    s = study.stream.summary()
    print(
        f"  stream: {len(study.stream.records)} jobs, "
        f"p99 {s['p99'] * 1e3:.3f} ms, util {s['utilisation'] * 100:.1f} %"
    )
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    """Simulate a multi-user job stream on one shared cluster.

    Generates a seeded synthetic arrival stream (or replays a
    ``repro-trace/1`` JSON file), schedules it with FCFS or EASY
    backfilling onto concrete nodes (first-fit / random / node-aware
    placement), runs every job's ranks on one shared flow network so
    co-running jobs contend for links, and reports throughput, latency
    percentiles, per-node utilisation, and bounded slowdown.

    ``--compare`` additionally prints the scheduler/placement comparison
    tables and the link-contention probe; ``--smoke`` runs the CI guard
    checks and exits non-zero if any fails.
    """
    if args.smoke:
        return _workload_smoke()

    from repro.experiments.workload import run_workload_study
    from repro.machine.presets import cray_xe6_cluster, westmere_cluster
    from repro.workload import (
        dump_trace,
        export_job_trace,
        load_trace,
        render_report,
        run_workload,
        synthetic_stream,
    )

    if args.trace:
        jobs = load_trace(args.trace)
        print(f"replaying {len(jobs)} jobs from {args.trace}")
    else:
        jobs = synthetic_stream(
            args.jobs, seed=args.seed, arrival=args.arrival, rate=args.rate
        )
    if args.dump_trace:
        path = dump_trace(jobs, args.dump_trace)
        print(f"job stream written to {path} (repro-trace/1)")

    if args.compare:
        print(run_workload_study(jobs=list(jobs)).render())
        return 0

    cluster = (
        cray_xe6_cluster(args.nodes, background_load=args.background_load)
        if args.network == "torus"
        else westmere_cluster(args.nodes)
    )
    result = run_workload(
        jobs,
        cluster,
        scheduler=args.scheduler,
        placement=args.placement,
        scheme=args.scheme,
        seed=args.seed,
        trace=args.trace_json is not None,
    )
    print(render_report(result))
    if args.trace_json:
        path = export_job_trace(result, args.trace_json)
        print(f"\nChrome trace written to {path} (one row group per job)")
    return 0


def _cmd_kernels(_args: argparse.Namespace) -> int:
    """Name the one spMVM kernel and the executor under its row sums."""
    from repro.sparse import native

    print("spMVM kernel: csr/reference (CRS row sums; spmm is bit-identical per column to spmv)")
    print(f"csr row sums: {native.status().describe()}")
    return 0


def _cmd_probe(_args: argparse.Namespace) -> int:
    from repro.experiments import run_progress_probe

    print(run_progress_probe().render())
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.matrices import get_matrix
    from repro.sparse import matrix_stats

    spec = get_matrix(args.name, args.scale)
    print(spec.description)
    A = spec.build()
    print(matrix_stats(A, check_symmetry=A.nrows <= 50_000).describe())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for fn in (_cmd_fig1, _cmd_fig2, _cmd_fig3, _cmd_fig4, _cmd_kappa, _cmd_probe,
               _cmd_fig5, _cmd_fig6):
        print("\n" + "=" * 74)
        fn(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Schubert et al. (2011): hybrid MPI+OpenMP spMVM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, **kw):
        p = sub.add_parser(name, help=fn.__doc__, **kw)
        p.set_defaults(fn=fn)
        return p

    add("list", _cmd_list)
    p1 = add("fig1", _cmd_fig1)
    p1.add_argument("--scale", default="small")
    p1.add_argument("--grid", type=int, default=40)
    add("fig2", _cmd_fig2)
    add("fig3", _cmd_fig3)
    p4 = add("fig4", _cmd_fig4)
    p4.add_argument("--scale", default="small")
    pt = add("trace", _cmd_trace)
    pt.add_argument("scheme", choices=("no_overlap", "naive_overlap", "task_mode"))
    pt.add_argument("--matrix", default="HMeP", choices=("HMeP", "HMEp", "sAMG"))
    pt.add_argument("--scale", default="small")
    pt.add_argument("--nodes", type=int, default=2)
    pt.add_argument("--mode", default="per-ld")
    pt.add_argument("--kappa", type=float, default=2.5)
    pt.add_argument("--iterations", type=int, default=1)
    pt.add_argument("--eager-threshold", type=int, default=1024)
    pt.add_argument("--async-progress", action="store_true",
                    help="model an MPI library with working progress threads")
    pt.add_argument("--sweeps", type=int, default=1,
                    help="chain N sweeps per iteration as one N-sweep program "
                         "(simulator only: the real backend runs single sweeps)")
    pt.add_argument("--no-pipeline", action="store_true",
                    help="sequential N-sweep program (no cross-sweep overlap)")
    pt.add_argument("--per-op", action="store_true",
                    help="print per-op cost attribution (program/sweep/op)")
    pt.add_argument("--metrics", action="store_true", help="print the flat metrics dict")
    pt.add_argument("--trace-json", metavar="PATH", default=None,
                    help="write Chrome trace_event JSON to PATH")
    for name, fn in (("fig5", _cmd_fig5), ("fig6", _cmd_fig6), ("all", _cmd_all)):
        p = add(name, fn)
        p.add_argument("--scale", default="small",
                       help="matrix scale (tiny/small/medium; medium matches benchmarks)")
        p.add_argument("--nodes", type=_parse_nodes, default=(1, 2, 4, 8),
                       help="comma-separated node counts")
        p.add_argument("--max-ranks", type=int, default=None)
        p.add_argument("--no-cray", action="store_true", help="skip the Cray reference")
        if name == "all":
            p.add_argument("--grid", type=int, default=40)
    add("kappa", _cmd_kappa)
    for name, fn in (("kappa-predict", _cmd_kappa_predict),
                     ("commvol", _cmd_commvol),
                     ("balance", _cmd_balance)):
        p = add(name, fn)
        p.add_argument("--scale", default="small")
    pc = add("comm-plan", _cmd_comm_plan)
    pc.add_argument("--matrix", default="HMeP", choices=("HMeP", "HMEp", "sAMG"))
    pc.add_argument("--scale", default="small")
    pc.add_argument("--nodes", type=int, default=4)
    pc.add_argument("--mode", default="per-core",
                    help="hybrid mode (per-core = pure MPI, the node-aware regime)")
    pc.add_argument("--network", default="torus", choices=("torus", "fat-tree"))
    pc.add_argument("--scheme", default="no_overlap",
                    choices=("no_overlap", "naive_overlap", "task_mode"))
    pc.add_argument("--simulate", action="store_true",
                    help="also simulate both plans and print GFlop/s")
    pcs = add("comm-plans", _cmd_comm_plans)
    pcs.add_argument("--scale", default="small")
    pcs.add_argument("--sweep-nodes", type=_parse_nodes, default=(1, 2, 4, 8),
                     help="node counts of the simulated torus sweep")
    pcs.add_argument("--no-sweep", action="store_true",
                     help="accounting tables only (skip the simulations)")
    pk = add("check", _cmd_check)
    pk.add_argument("--matrix", default="HMeP", choices=("HMeP", "HMEp", "sAMG"))
    pk.add_argument("--scale", default="tiny")
    pk.add_argument("--nranks", type=int, default=4)
    pk.add_argument("--ranks-per-node", type=int, default=2)
    pk.add_argument("--seed-bug", metavar="NAME", default=None,
                    help="run a seeded-bug fixture (repro.check.SEED_BUGS) and require "
                         "its detector to fire")
    pl = add("lint", _cmd_lint)
    pl.add_argument("path", nargs="?", default=None,
                    help="tree to lint (default: the installed repro package)")
    pl.add_argument("--rule", metavar="NAME", default=None,
                    help="apply only this rule (see --list)")
    pl.add_argument("--list", action="store_true", help="list the rule catalog")
    add("probe", _cmd_probe)
    pb = add("bench", _cmd_bench)
    pb.add_argument("--quick", action="store_true",
                    help="small matrix, few repeats (CI smoke mode; guards still enforced)")
    pb.add_argument("--seed", type=int, default=7)
    ps = add("serve", _cmd_serve)
    ps.add_argument("--matrix", default="HMeP", choices=("HMeP", "HMEp", "sAMG"))
    ps.add_argument("--scale", default="tiny")
    ps.add_argument("--nranks", type=int, default=4)
    ps.add_argument("--scheme", default="task_mode",
                    choices=("no_overlap", "naive_overlap", "task_mode"))
    ps.add_argument("--requests", type=int, default=64)
    ps.add_argument("--concurrency", type=int, default=8,
                    help="concurrent submitter threads")
    ps.add_argument("--max-batch", type=int, default=8,
                    help="max coalesced columns per spmm batch")
    ps.add_argument("--verify", type=int, default=4,
                    help="responses to re-check against independent runs")
    ps.add_argument("--seed", type=int, default=7)
    ps.add_argument("--model", metavar="PATH", default=None,
                    help="save the model here as a repro-model/2 file (matrix + "
                         "serving configuration) and serve from the copy rebuilt from it")
    pw = add("workload", _cmd_workload)
    pw.add_argument("--jobs", type=int, default=100,
                    help="synthetic stream length (default: %(default)s)")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--arrival", default="poisson", choices=("poisson", "heavy"),
                    help="interarrival distribution of the synthetic stream "
                         "(heavy = heavy-tailed Pareto)")
    pw.add_argument("--rate", type=float, default=1.0e5,
                    help="mean arrival rate in jobs per simulated second "
                         "(default saturates the 16-node machine)")
    pw.add_argument("--scheduler", default="easy", choices=("fcfs", "easy"))
    pw.add_argument("--placement", default="node-aware",
                    choices=("first-fit", "random", "node-aware"))
    pw.add_argument("--network", default="torus", choices=("torus", "fat-tree"))
    pw.add_argument("--nodes", type=int, default=16)
    pw.add_argument("--background-load", type=float, default=0.85,
                    help="torus background traffic fraction (torus only)")
    pw.add_argument("--scheme", default="naive_overlap",
                    choices=("no_overlap", "naive_overlap"))
    pw.add_argument("--trace", metavar="PATH", default=None,
                    help="replay a repro-trace/1 JSON file instead of a synthetic stream")
    pw.add_argument("--dump-trace", metavar="PATH", default=None,
                    help="write the job stream as repro-trace/1 JSON before running")
    pw.add_argument("--trace-json", metavar="PATH", default=None,
                    help="write a per-job Chrome trace_event JSON of the run")
    pw.add_argument("--compare", action="store_true",
                    help="full study: policy comparison tables + contention probe")
    pw.add_argument("--smoke", action="store_true",
                    help="run the CI guard checks; non-zero exit on failure")
    add("kernels", _cmd_kernels)
    pm = add("matrix", _cmd_matrix)
    pm.add_argument("name", choices=("HMeP", "HMEp", "sAMG"))
    pm.add_argument("--scale", default="tiny")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
