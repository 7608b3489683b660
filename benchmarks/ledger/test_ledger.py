"""Self-tests of the ledger benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (outside
the tier-1 ``testpaths``; about half a minute).  They check the
benchmark's own instruments, not the program: the stepped sweep and the
halo-free twin, the estimator and the span recorder, the contract of
``run.py`` and ``BENCHMARK.json``, ``compare.py`` and the seeded
failure check.
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
from estimator import Phase
from layers import COUNTS, halo_free_twin, stepped_sweep
from spans import Recorder
from workloads import END_TO_END, GATED, NRANKS, WORKLOADS, make_inputs

from repro.core import DistributedSpMVM, build_halo_plan, cached_halo_plan
from repro.matrices import get_matrix
from repro.mpilite import PerRank, run_spmd

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_ledger(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- the instruments ---------------------------------------------------
def _stepped_rank(comm, halo, x):
    engine = DistributedSpMVM(comm, halo)
    multiply = engine.multiply if x.ndim == 1 else engine.multiply_block
    x_local = x[halo.row_lo : halo.row_hi].copy()
    stepped = stepped_sweep(engine, x_local, Recorder(), rank=comm.rank)
    return bool(np.array_equal(stepped, multiply(x_local, "naive_overlap")))


@pytest.mark.parametrize(
    "workload,scale",
    [(name, "tiny") for name in WORKLOADS] + [("hmep-small", "small"), ("samg-small-block", "small")],
)
def test_stepped_sweep_is_bit_identical_and_twin_has_no_halo(workload, scale):
    wl = WORKLOADS[workload]
    A = get_matrix(wl.matrix, scale).build()
    plan = cached_halo_plan(A, NRANKS, with_matrices=True)
    x = make_inputs(A.nrows, wl.k, seed=3).xs[0]
    assert all(run_spmd(NRANKS, _stepped_rank, PerRank(plan.ranks), x))

    twin_plan = build_halo_plan(halo_free_twin(A, plan), plan.partition, with_matrices=True)
    for twin, real in zip(twin_plan.ranks, plan.ranks):
        assert twin.n_halo == 0 and not twin.send_to
        assert twin.A_local.nnz == real.A_local.nnz


def test_estimators_report_the_best_window():
    phase = Phase("t", "ms")
    phase.extend(0, [5.0, 9.0, 7.0])  # median 7
    phase.extend(1, [4.0, 6.0, 50.0])  # median 6 <- best
    assert phase.value == 6.0
    rate = Phase("r", "req/s", better="higher")
    rate.extend(0, [10.0, 30.0])
    rate.extend(1, [5.0, 7.0])
    assert rate.value == 20.0
    setup = Phase("s", "s", estimator="median-round-best")
    setup.extend(0, [1.0, 4.0])
    setup.extend(1, [9.0, 8.0])
    setup.extend(2, [2.0, 7.0])
    assert setup.value == 2.0
    parts = Phase("p", "s", estimator="best-parts")
    parts.add_parts(0, {"a": 1.0, "b": 5.0})
    parts.add_parts(1, {"a": 2.0, "b": 3.0})
    assert parts.samples == [6.0, 5.0] and parts.value == 4.0
    assert phase.summary()["samples"] == 6


def test_span_self_time_excludes_children_and_trace_is_chrome_json(tmp_path):
    rec = Recorder()
    with rec.span("a.outer", request=1) as outer:
        with rec.span("b.inner"):
            pass
        with rec.span("b.inner"):
            pass
    inner = rec.select("b.inner")
    assert len(inner) == 2 and all(s.parent == outer.id for s in inner)
    self_time = rec.self_seconds()
    assert self_time["a.outer"] == pytest.approx(outer.seconds - sum(s.seconds for s in inner))
    trace = json.loads(rec.write_chrome(tmp_path / "t.json").read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} == {"a.outer", "b.inner"}
    assert events[0]["args"]["request"] == 1 and trace["displayTimeUnit"] == "ms"


# -- BENCHMARK.json and the run contract ---------------------------------
def test_benchmark_json_matches_the_code_and_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(GATED) and set(GATED) <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128 and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    proc = run_ledger("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(out.read_text())


def test_quick_run_reports_every_metric_finite_and_no_failed_op(quick):
    proc, full = quick
    result = full["results"]["hmep-small"]
    e2e = result["e2e"]["metrics"]
    assert list(e2e) == [name for name, _unit, _better in END_TO_END]
    layers = result["layers"]["metrics"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in {**e2e, **layers}.items():
        assert NAME.fullmatch(name) and math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name], name
    assert all(value > 0 for value in (m["value"] for m in e2e.values()))
    assert set(result["layers"]["counts"]) == set(COUNTS)
    for stage in ("e2e", "layers"):
        assert sum(result[stage]["ops"]["failed"].values()) == 0
    assert layers["ledger.stepped_residual_frac"]["value"] <= 0.10
    trace = json.loads(Path(result["layers"]["trace"]["path"]).read_text())
    assert any(e["name"] == "ledger.stepped_sweep" for e in trace["traceEvents"])
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1


def test_compare_accepts_a_rerun_and_rejects_regressions_and_count_drift(quick):
    _proc, full = quick
    assert compare.compare(full, full, SPEC, out=io.StringIO()) == []
    worse = json.loads(json.dumps(full))
    metrics = worse["results"]["hmep-small"]["e2e"]["metrics"]
    metrics["sweep_task_ms"]["value"] *= 1.5
    metrics["burst_rps"]["value"] *= 0.5
    worse["results"]["hmep-small"]["layers"]["counts"]["core.halo_bytes"] += 8
    problems = compare.compare(full, worse, SPEC, out=io.StringIO())
    assert len(problems) == 3
    worse["seed"] = full["seed"] + 1  # counts may differ across seeds
    assert len(compare.compare(full, worse, SPEC, out=io.StringIO())) == 2
    better = json.loads(json.dumps(full))
    better["results"]["hmep-small"]["e2e"]["metrics"]["solve_s"]["value"] *= 0.5
    assert compare.compare(full, better, SPEC, out=io.StringIO()) == []


def test_self_check_fires_on_three_seeded_corruptions():
    proc = run_ledger("--self-check")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = last_json(proc.stdout)
    assert line["correct"] is False and line["failed"] == 3


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_ledger(
        "--workload", "hmep-small", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "ledger" / "run.py",
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
