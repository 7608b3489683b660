"""Command-line interface: regenerate any paper figure/table from a shell.

Usage::

    python -m repro list
    python -m repro fig1 --scale small
    python -m repro fig3
    python -m repro fig5 --scale medium --nodes 1,2,4,8,16,24,32
    python -m repro probe
    python -m repro matrix HMeP --scale tiny   # matrix inspection

Each figure command prints the rendered table the figure suite
(``pytest benchmarks --ignore=benchmarks/ledger``) writes to
``benchmarks/output/`` when run with that suite's arguments.
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
    print("available commands:")
    commands = _subcommand_help(build_parser())
    width = max(len(name) for name in commands)
    for name, text in commands.items():
        print(f"  {name:<{width}}  {text}")
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
        trace=True,
    )
    assert r.trace is not None
    print(r.describe())
    print()
    print(phase_summary(r.trace, title=f"per-op summary ({args.scheme})").render())
    overlap_bytes = overlap_bytes_with_phase(r.trace, "local spMVM")
    print(
        f"\nrendezvous bytes moved during the endpoints' local spMVM: "
        f"{overlap_bytes:.0f} B"
    )
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
    from repro.core.halo import cached_halo_plan
    from repro.core.runner import simulate_spmvm
    from repro.experiments.calibration import (
        REDUCED_EAGER_THRESHOLD,
        TORUS_MESSAGE_OVERHEAD,
        kappa_for,
    )
    from repro.machine.affinity import plan_placement, ranks_for_mode
    from repro.machine.presets import cray_xe6_cluster, westmere_cluster
    from repro.matrices import get_matrix

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
    # the table and both simulated runs share this one build
    halo = cached_halo_plan(A, nranks, with_matrices=False)
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

    print(_executor_lines())
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
    solver-service session, each run under a fresh checker (ranks and
    threads at once) and cross-checked against the serial kernel.  Exit
    1 on any finding.

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


def _cmd_kernels(_args: argparse.Namespace) -> int:
    """Name the one spMVM kernel, the executor under its row sums and the
    simulator's flow engine."""
    from repro.sparse import native

    print("spMVM kernel: csr/reference (CRS row sums; spmm is bit-identical per column to spmv)")
    print(_executor_lines())
    status = native.status()
    print(f"flow engine: {'compiled' if status.available else f'python ({status.reason})'}")
    return 0


def _executor_lines() -> str:
    """Which executor computes the row sums and the plan cache's checksum."""
    from repro.sparse import native

    status = native.status()
    witness = "compiled" if status.available else f"crc32 ({status.reason})"
    return f"csr row sums: {status.describe()}\nmatrix checksum: {witness}"


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


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Schubert et al. (2011): hybrid MPI+OpenMP spMVM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, text: str):
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        return p

    add("list", _cmd_list, "list the subcommands, one line each")
    p1 = add("fig1", _cmd_fig1, "sparsity patterns (block occupancy) of HMEp / HMeP / sAMG")
    p1.add_argument("--scale", default="small")
    p1.add_argument("--grid", type=int, default=40)
    add("fig2", _cmd_fig2, "node topologies (Westmere, Magny Cours)")
    add("fig3", _cmd_fig3, "node-level performance analysis (both panels)")
    p4 = add("fig4", _cmd_fig4, "scheme timelines (simulator Gantt charts)")
    p4.add_argument("--scale", default="small")
    pt = add("trace", _cmd_trace, "trace one simulated sweep (summary, metrics, Chrome JSON)")
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
    pt.add_argument("--metrics", action="store_true", help="print the flat metrics dict")
    pt.add_argument("--trace-json", metavar="PATH", default=None,
                    help="write Chrome trace_event JSON to PATH")
    for name, fn, text in (
        ("fig5", _cmd_fig5, "HMeP strong scaling on the Westmere cluster"),
        ("fig6", _cmd_fig6, "sAMG strong scaling on the Westmere cluster"),
    ):
        p = add(name, fn, text)
        p.add_argument("--scale", default="small",
                       help="matrix scale (tiny/small/medium; medium matches benchmarks)")
        p.add_argument("--nodes", type=_parse_nodes, default=(1, 2, 4, 8),
                       help="comma-separated node counts")
        p.add_argument("--max-ranks", type=int, default=None)
        p.add_argument("--no-cray", action="store_true", help="skip the Cray reference")
    add("kappa", _cmd_kappa, "Sect. 2 κ determination + Eq. 2 split penalty")
    for name, fn, text in (
        ("kappa-predict", _cmd_kappa_predict, "predict κ from structure via the LRU cache model"),
        ("commvol", _cmd_commvol, "internode communication volume vs node count"),
        ("balance", _cmd_balance, "load-balancing study (compute vs communication)"),
    ):
        p = add(name, fn, text)
        p.add_argument("--scale", default="small")
    pc = add("comm-plan", _cmd_comm_plan, "direct vs node-aware halo-exchange plan (repro.comm)")
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
    pcs = add("comm-plans", _cmd_comm_plans,
              "plan accounting + simulated node-aware scaling sweep")
    pcs.add_argument("--scale", default="small")
    pcs.add_argument("--sweep-nodes", type=_parse_nodes, default=(1, 2, 4, 8),
                     help="node counts of the simulated torus sweep")
    pcs.add_argument("--no-sweep", action="store_true",
                     help="accounting tables only (skip the simulations)")
    pk = add("check", _cmd_check, "communication correctness analyzer (repro.check)")
    pk.add_argument("--matrix", default="HMeP", choices=("HMeP", "HMEp", "sAMG"))
    pk.add_argument("--scale", default="tiny")
    pk.add_argument("--nranks", type=int, default=4)
    pk.add_argument("--ranks-per-node", type=int, default=2)
    pk.add_argument("--seed-bug", metavar="NAME", default=None,
                    help="run a seeded-bug fixture (repro.check.SEED_BUGS) and require "
                         "its detector to fire")
    pl = add("lint", _cmd_lint, "repo-invariant AST lint (repro.check.astlint)")
    pl.add_argument("path", nargs="?", default=None,
                    help="tree to lint (default: the installed repro package)")
    pl.add_argument("--rule", metavar="NAME", default=None,
                    help="apply only this rule (see --list)")
    pl.add_argument("--list", action="store_true", help="list the rule catalog")
    add("probe", _cmd_probe, "Sect. 3 asynchronous-progress probe")
    pb = add("bench", _cmd_bench, "guard suite: kernel, program and check ratios")
    pb.add_argument("--quick", action="store_true",
                    help="small matrix, few repeats (CI smoke mode; guards still enforced)")
    pb.add_argument("--seed", type=int, default=7)
    ps = add("serve", _cmd_serve, "persistent solver service: build once, stream requests")
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
    add("kernels", _cmd_kernels, "the spMVM kernel and which executor computes its row sums")
    pm = add("matrix", _cmd_matrix, "build and describe one registry matrix")
    pm.add_argument("name", choices=("HMeP", "HMEp", "sAMG"))
    pm.add_argument("--scale", default="tiny")
    return parser


def _subcommand_help(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Each subcommand's one-line help, in the order *parser* defines them."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action.help for action in sub._choices_actions}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
