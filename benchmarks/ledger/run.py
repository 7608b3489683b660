"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace {0,1}] [--quick] [--out PATH] [--self-check]

Each workload runs in fresh subprocesses (``worker.py``): one generates
the matrix, one measures the ten end-to-end metrics with tracing off
(``--trace 0``), one runs the per-layer probes and the traced pass
(``--trace 1``); without ``--trace`` both are run.  Every metric is
printed by name with its unit, every output is checked, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (``BENCHMARK.json`` says which
metrics).  Exit code: 0 clean, 1 if any op failed, 2 if the checkout
lacks ``src/repro``, 3 if a stage crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUTPUT = ROOT / "benchmarks" / "output"
STAGE_TIMEOUT = 170.0
SELF_CHECK_PHASES = ("sweep", "request", "sim")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def stage(name: str, workload: str, matrix: Path, *extra: str) -> dict:
    """Run one worker stage to completion; its last output line is the result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), name,
        "--workload", workload, "--matrix", str(matrix), "--output", str(OUTPUT), *extra,
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=STAGE_TIMEOUT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"stage {name} of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, stages: tuple[str, ...], seed: int, seconds: float, corrupt="") -> dict:
    OUTPUT.mkdir(parents=True, exist_ok=True)
    matrix = Path(tempfile.mkdtemp(prefix="ledger-matrix-", dir=OUTPUT))
    try:
        results = {"generate": stage("generate", workload, matrix)}
        for name in stages:
            extra = ["--seed", str(seed), "--seconds", str(seconds)]
            if corrupt:
                extra += ["--corrupt", corrupt]
            results[name] = stage(name, workload, matrix, *extra)
    finally:
        shutil.rmtree(matrix, ignore_errors=True)
    if "layers" in results:
        results["layers"]["metrics"]["matrices.build_s"] = {
            "value": results["generate"]["matrices.build_s"], "unit": "s"
        }
    return results


# ----------------------------------------------------------------------
def report(workload: str, results: dict) -> None:
    gen = results["generate"]
    print(f"\n== {workload}: {gen['nrows']} rows, {gen['nnz']} nnz, "
          f"built in {gen['matrices.build_s']:.2f} s ==")
    if "e2e" in results:
        print(f"{'end-to-end metric':<20}{'value':>12} {'unit':<6}"
              f"{'median':>12}{'q1':>12}{'q3':>12}{'n':>6}{'rounds':>7}")
        for name, m in results["e2e"]["metrics"].items():
            stats = "".join(f"{m[key]:>12.4f}" for key in ("median", "q1", "q3") if key in m)
            counts = f"{m['samples']:>6}{m['rounds']:>7}" if "samples" in m else ""
            print(f"{name:<20}{m['value']:>12.4f} {m['unit']:<6}{stats}{counts}")
    if "layers" in results:
        layer = None
        for name, m in sorted(results["layers"]["metrics"].items()):
            if name.split(".", 1)[0] != layer:
                layer = name.split(".", 1)[0]
                print(f"-- {layer}")
            print(f"  {name:<38}{m['value']:>16.6g} {m['unit']}")
        trace = results["layers"]["trace"]
        print(f"-- trace: {trace['spans']} spans -> {trace['path']}")
        for name, secs in list(trace["self_seconds"].items())[:8]:
            print(f"  self time {name:<28}{secs * 1e3:>12.2f} ms")
    for name in ("e2e", "layers"):
        if name in results:
            ops = results[name]["ops"]
            for phase, attempted in sorted(ops["attempted"].items()):
                print(f"ops[{name}] {phase:<10} ops_attempted={attempted:<7}"
                      f"ops_failed={ops['failed'].get(phase, 0)}")
            for note in ops["notes"]:
                print(f"  FAILED {note}")


def contract_line(results: dict) -> dict:
    """The result object the benchmark contract asks for."""
    metrics, attempted, failed = {}, 0, 0
    for name in ("e2e", "layers"):
        if name in results:
            metrics.update(
                {k: {"value": m["value"], "unit": m["unit"]} for k, m in results[name]["metrics"].items()}
            )
            attempted += sum(results[name]["ops"]["attempted"].values())
            failed += sum(results[name]["ops"]["failed"].values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_check() -> int:
    """Damage one sweep, one request and one simulated value inside the
    comparison path; the run must report exactly those as failed ops."""
    results = run_workload("hmep-small", ("e2e",), 0, 2.0, corrupt=",".join(SELF_CHECK_PHASES))
    report("hmep-small", results)
    line = contract_line(results)
    failed = results["e2e"]["ops"]["failed"]
    fired = all(failed.get(phase) == 1 for phase in SELF_CHECK_PHASES) and line["failed"] == 3
    print("self-check: " + ("all three seeded corruptions were reported as failed ops"
                            if fired else f"GATE BROKEN, failed ops were {failed}"))
    print(json.dumps(line))
    return 1 if fired else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0, help="right-hand sides and start vectors")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per stage (default 50, as BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer + traced pass; default: both")
    parser.add_argument("--quick", action="store_true", help="hmep-small only, 3 s per stage")
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--self-check", action="store_true",
                        help="seed three corruptions; must report three failed ops and exit 1")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"ledger: {ROOT / 'src' / 'repro'} not found; run from a full checkout\n")
        return 2
    if args.self_check:
        return self_check()
    workloads = args.workload or (["hmep-small"] if args.quick else list(WORKLOADS))
    seconds = args.seconds if args.seconds is not None else (3.0 if args.quick else 50.0)
    stages = {None: ("e2e", "layers"), 0: ("e2e",), 1: ("layers",)}[args.trace]
    full = {
        "schema": "ledger/1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": args.seed,
        "seconds": seconds,
        "results": {},
    }
    line = None
    for workload in workloads:
        try:
            results = run_workload(workload, stages, args.seed, seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"ledger: {exc}\n")
            return 3
        full["results"][workload] = results
        report(workload, results)
        line = contract_line(results)
        sys.stdout.flush()
        print(json.dumps(line))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    failed = sum(
        sum(res[s]["ops"]["failed"].values()) for res in full["results"].values() for s in stages
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
