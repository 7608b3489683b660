"""One stage of one workload, in its own process (started by ``run.py``).

``generate`` builds the workload's matrix and stores its three CSR
arrays; ``e2e`` measures the end-to-end metrics with tracing off;
``layers`` runs the per-layer probes and the traced pass; ``setup`` is
one cold set-up, started by the two measuring stages.  Generation is
its own process so that the measuring process starts with a clean
resident set: ``peak_rss_mb`` is then the program's, not the
generator's.  Each stage prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import END_TO_END, NRANKS, WORKLOADS, make_inputs

ARRAYS = ("row_ptr", "col_idx", "val")


def generate(args) -> dict:
    from repro.matrices import get_matrix

    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    A = get_matrix(wl.matrix, wl.scale).build()
    build_s = time.perf_counter() - t0
    for name in ARRAYS:
        np.save(args.matrix / f"{name}.npy", getattr(A, name))
    return {"matrices.build_s": build_s, "nrows": A.nrows, "nnz": A.nnz}


def load_matrix(directory: Path):
    from repro.sparse import CSRMatrix

    return CSRMatrix(*(np.load(directory / f"{name}.npy") for name in ARRAYS))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def setup(args) -> dict:
    from endtoend import cold_setup

    A = load_matrix(args.matrix)
    return cold_setup(A, make_inputs(A.nrows, WORKLOADS[args.workload].k, args.seed).xs[0])


def measure(args) -> dict:
    from endtoend import EndToEnd, Ops

    wl = WORKLOADS[args.workload]
    A = load_matrix(args.matrix)
    inputs = make_inputs(A.nrows, wl.k, args.seed)
    setup_cmd = [
        sys.executable, __file__, "setup", "--workload", wl.name,
        "--matrix", str(args.matrix), "--seed", str(args.seed),
    ]
    ops = Ops(corrupt=args.corrupt.split(",") if args.corrupt else ())
    result = {
        "workload": wl.name,
        "stage": args.stage,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(),
    }
    if args.stage == "layers":
        # the process-backend probe forks: run it before any thread exists
        from layers import procs_probe

        from repro.core import cached_halo_plan

        procs = procs_probe(cached_halo_plan(A, NRANKS, with_matrices=True), wl.k)
    if args.stage == "e2e":
        e2e = EndToEnd(wl, A, inputs, ops, setup_cmd)
        try:
            phases = e2e.run(args.seconds)
        finally:
            e2e.close()
        metrics = {
            name: phases[name].summary() for name, _unit, _better in END_TO_END if name in phases
        }
        # the high-water mark now is the one at exit: nothing is left to run
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        result["counts"] = {"solvers.iterations": e2e.solve_iterations}
    else:
        metrics, result["counts"], result["trace"] = layers_stage(
            args, EndToEnd(wl, A, inputs, ops, setup_cmd), procs
        )
    result["metrics"] = metrics
    result["ops"] = {
        "attempted": dict(ops.attempted),
        "failed": dict(ops.failed),
        "notes": ops.notes[:20],
    }
    return result


def layers_stage(args, e2e, procs: dict):
    from layers import COUNTS, Layers
    from spans import Recorder

    rec = Recorder()
    # temporary files stay inside the checkout, like everything else
    with tempfile.TemporaryDirectory(prefix="ledger-tmp-", dir=args.output) as scratch:
        try:
            values = Layers(e2e.wl, e2e, rec, Path(scratch)).run(args.seconds)
        finally:
            e2e.close()
    values.update(procs)
    trace = rec.write_chrome(args.output / f"ledger-{e2e.wl.name}.trace.json")
    self_seconds = sorted(rec.self_seconds().items(), key=lambda kv: -kv[1])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    counts = {name: values[name][0] for name in COUNTS}
    return metrics, counts, {
        "path": str(trace),
        "spans": len(rec.spans),
        "counts": dict(rec.counts),
        "self_seconds": dict(self_seconds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stage", choices=("generate", "e2e", "layers", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--matrix", required=True, type=Path, help="directory of the CSR arrays")
    parser.add_argument("--output", type=Path, help="directory for the trace and temporary files")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--corrupt", default="", help="phases to damage (self-check)")
    args = parser.parse_args(argv)
    stage = {"generate": generate, "setup": setup}.get(args.stage, measure)
    result = stage(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
