"""The benchmark harness, the guard suite, and the repro-bench/1 schema."""

import json

import pytest

import repro.bench
from repro.bench import (
    BENCH_SCHEMA,
    BenchResult,
    TimingStats,
    spmvm_suite,
    time_callable,
    write_results,
)
from repro.bench import suite as bench_suite
from repro.bench.suite import GROUPS, GUARD_MIN_ROWS, guard_failures, kernel_guard
from repro.cli import main

EXPECTED_NAMES = {
    "spmv", "spmv-out", "spmm-k1", "spmm-k4", "spmm-k16",
    "program-overhead",
    "sanitizer-overhead",
}


# ------------------------------------------------------------- harness


def test_time_callable_counts_calls():
    calls = []
    stats = time_callable(lambda: calls.append(1), warmup=2, repeat=5)
    assert len(calls) == 7
    assert len(stats.samples) == 5
    assert all(s >= 0 for s in stats.samples)
    assert stats.min <= stats.median <= max(stats.samples)
    assert stats.min <= stats.mean <= max(stats.samples)
    assert stats.std >= 0


def test_time_callable_validation():
    with pytest.raises(ValueError):
        time_callable(lambda: None, warmup=-1)
    with pytest.raises(ValueError):
        time_callable(lambda: None, repeat=0)


def test_timing_stats_single_sample():
    s = TimingStats(samples=(0.25,))
    assert s.min == s.mean == s.median == 0.25
    assert s.std == 0.0
    assert s.to_dict() == {"min": 0.25, "mean": 0.25, "median": 0.25, "std": 0.0}


def test_bench_result_round_trip():
    r = BenchResult(
        name="x", group="kernel", warmup=1, repeat=2,
        seconds=TimingStats(samples=(1.0, 3.0)),
        params={"n": 5}, derived={"gflops": 2.0},
    )
    d = r.to_dict()
    assert d["name"] == "x"
    assert d["seconds"]["mean"] == 2.0
    assert d["params"] == {"n": 5}
    assert "gflops" in r.describe()
    json.dumps(d)  # JSON-serialisable as-is


# --------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def tiny_suite():
    return spmvm_suite(quick=True, nrows=300, nranks=2)


def test_suite_covers_all_paths(tiny_suite):
    assert {r.name for r in tiny_suite} == EXPECTED_NAMES
    # the distributed, serve and workload paths are timed by
    # benchmarks/ledger only; what is left is one row of GROUPS each
    groups = list(dict.fromkeys(r.group for r in tiny_suite))
    assert groups == [g for g, _, _ in GROUPS] == ["kernel", "program", "check"]
    for r in tiny_suite:
        assert r.seconds.min > 0
        assert r.derived["gflops"] > 0
        assert r.params["nnz"] > 0
        if "k" in r.params:
            assert r.derived["seconds_per_column"] == pytest.approx(
                r.seconds.min / r.params["k"]
            )


def test_block_results_carry_model_comparison(tiny_suite):
    # every block result reports its speedup next to the code-balance
    # prediction 6/k + 12/Nnzr (repro.model), the paper's upper bound
    for r in tiny_suite:
        if r.group == "kernel" and "spmm" in r.name:
            # k=1 predicts exactly 1.0 (no amortisation), k>1 a gain
            if r.params["k"] == 1:
                assert r.derived["model_speedup"] == 1.0
            else:
                assert r.derived["model_speedup"] > 1.0
            assert r.derived["model_fraction"] == pytest.approx(
                r.derived["speedup_vs_spmv"] / r.derived["model_speedup"]
            )


def _guard_result(name, k, nrows, speedup):
    return BenchResult(
        name=name, group="kernel", warmup=1, repeat=3,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "k": k},
        derived={"speedup_vs_spmv": speedup},
    )


def test_kernel_guard_enforces_block_speedups():
    ok = [
        _guard_result("spmm-k1", 1, 4000, 1.0),  # k=1 parity is enough
        _guard_result("spmm-k4", 4, 4000, 1.2),
        _guard_result("spmm-k16", 16, 4000, 1.4),
    ]
    assert kernel_guard(ok) == ["spmm-k1", "spmm-k4", "spmm-k16"]
    with pytest.raises(AssertionError, match="spmm-k4"):
        kernel_guard([_guard_result("spmm-k4", 4, 4000, 0.9)])
    # k > 1 must beat spmv strictly; exact parity means no batching win
    with pytest.raises(AssertionError, match="spmm-k16"):
        kernel_guard([_guard_result("spmm-k16", 16, 4000, 1.0)])
    # the degenerate batch may tie but not lose
    with pytest.raises(AssertionError, match="spmm-k1"):
        kernel_guard([_guard_result("spmm-k1", 1, 4000, 0.99)])


def test_kernel_guard_skips_noise_dominated_sizes():
    tiny = _guard_result("spmm-k4", 4, GUARD_MIN_ROWS - 1, 0.5)
    assert kernel_guard([tiny]) == []
    # ...which is why the tiny test suite (300 rows) cannot flake on it


def test_tiny_suite_below_guard_threshold(tiny_suite):
    # the module fixture runs at 300 rows: the guard must have been a
    # no-op there, or CI test runs would inherit timing flakiness
    kernel_nrows = {r.params["nrows"] for r in tiny_suite if r.group == "kernel"}
    assert max(kernel_nrows) < GUARD_MIN_ROWS


def test_program_overhead_guard(tiny_suite):
    # the sweep-IR tentpole's perf contract: interpreter indirection must
    # stay well under 5% of the single-rank spmv hot path.  The hot path
    # is a fixed matrix — one rank's half of the ledger's hmep-small
    # (16 800 rows, Nnzr 10), the shortest sweep the ledger gates on — so
    # even the tiny suite is enforced, and a faster kernel under the
    # interpreter does not turn the same 5 us into a failure.
    from repro.bench.suite import PROGRAM_OVERHEAD_MAX, program_guard

    (r,) = [r for r in tiny_suite if r.name == "program-overhead"]
    assert r.derived["guard_max"] == PROGRAM_OVERHEAD_MAX == 0.05
    assert program_guard(tiny_suite) == ["program-overhead"]
    assert 0.0 <= r.derived["overhead_vs_hot_path"] < r.derived["guard_max"]
    assert r.derived["indirection_seconds"] < r.derived["hot_path_seconds"]


def _program_result(nrows, overhead):
    return BenchResult(
        name="program-overhead", group="program", warmup=1, repeat=200,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 15 * nrows, "nranks": 1, "scheme": "no_overlap"},
        derived={"overhead_vs_hot_path": overhead, "guard_max": 0.05},
    )


def test_program_guard_enforces_at_guard_size():
    from repro.bench.suite import PROGRAM_OVERHEAD_MAX, program_guard

    assert program_guard([_program_result(4000, 0.02)]) == ["program-overhead"]
    with pytest.raises(AssertionError, match="per-op cost"):
        program_guard([_program_result(4000, 0.08)])
    # the bound itself is already a violation (strictly under 5 %)
    with pytest.raises(AssertionError, match="program-overhead"):
        program_guard([_program_result(4000, PROGRAM_OVERHEAD_MAX)])
    assert program_guard([_program_result(GUARD_MIN_ROWS - 1, 0.5)]) == []


def test_sanitizer_overhead_reported(tiny_suite):
    from repro.bench.suite import SANITIZER_OVERHEAD_MAX, sanitizer_guard

    (r,) = [r for r in tiny_suite if r.name == "sanitizer-overhead"]
    assert r.group == "check"
    assert r.derived["guard_max"] == SANITIZER_OVERHEAD_MAX
    assert r.derived["events_observed"] > 0
    assert r.derived["plain_seconds"] > 0
    # 300 rows is below GUARD_MIN_ROWS: reported, not enforced
    # (sub-millisecond sweeps put thread spin-up jitter in the ratio)
    assert r.params["nrows"] < GUARD_MIN_ROWS
    assert sanitizer_guard(tiny_suite) == []


def _sanitizer_result(nrows, overhead):
    return BenchResult(
        name="sanitizer-overhead", group="check", warmup=1, repeat=5,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "nranks": 2, "scheme": "task_mode"},
        derived={"overhead_vs_plain": overhead, "guard_max": 1.2},
    )


def test_sanitizer_guard_enforces_at_guard_size():
    from repro.bench.suite import sanitizer_guard

    ok = _sanitizer_result(4000, 1.1)
    assert sanitizer_guard([ok]) == ["sanitizer-overhead"]
    with pytest.raises(AssertionError, match="sanitizer-overhead"):
        sanitizer_guard([_sanitizer_result(4000, 1.5)])
    # sub-guard sizes are never enforced
    tiny = _sanitizer_result(GUARD_MIN_ROWS - 1, 1.5)
    assert sanitizer_guard([tiny]) == []


def test_write_results_schema(tiny_suite, tmp_path):
    path = tmp_path / "BENCH_spmvm.json"
    payload = write_results(tiny_suite, path, quick=True)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == BENCH_SCHEMA == "repro-bench/1"
    assert on_disk["quick"] is True
    assert on_disk["python"] and on_disk["numpy"] and on_disk["created"]
    assert {r["name"] for r in on_disk["results"]} == EXPECTED_NAMES
    for r in on_disk["results"]:
        assert set(r) == {
            "name", "group", "params", "warmup", "repeat", "seconds", "derived"
        }
        assert set(r["seconds"]) == {"min", "mean", "median", "std"}


# ----------------------------------------------------- the group table


def test_every_group_has_a_guard():
    # one synthetic passing result set per row of GROUPS, at any size
    passing = {
        "kernel": lambda n: [_guard_result("spmm-k1", 1, n, 1.0),
                             _guard_result("spmm-k4", 4, n, 1.2)],
        "program": lambda n: [_program_result(n, 0.02)],
        "check": lambda n: [_sanitizer_result(n, 1.1)],
    }
    assert [g for g, _, _ in GROUPS] == list(passing)
    for group, bench, guard in GROUPS:
        assert callable(bench)
        mine = passing[group](GUARD_MIN_ROWS)
        others = [r for g, make in passing.items() if g != group
                  for r in make(GUARD_MIN_ROWS)]
        enforced = guard(mine + others)
        assert enforced and set(enforced) <= {r.name for r in mine}
        assert guard(others) == []  # a guard reads its own group only
        # below guard size nothing timed is enforced
        assert guard(passing[group](GUARD_MIN_ROWS - 1)) == []
    assert guard_failures([r for make in passing.values()
                           for r in make(GUARD_MIN_ROWS)]) == []
    # the package surface: the harness, the three guards, their bounds
    assert set(repro.bench.__all__) == {
        "BENCH_SCHEMA", "BenchResult", "TimingStats", "time_callable",
        "write_results", "BLOCK_WIDTHS", "SANITIZER_OVERHEAD_MAX",
        "kernel_guard", "program_guard", "sanitizer_guard", "spmvm_suite",
    }


def test_guard_failures_names_every_violated_guard():
    bad = [_guard_result("spmm-k4", 4, 4000, 0.9), _sanitizer_result(4000, 1.5),
           _program_result(4000, 0.02)]
    failures = guard_failures(bad)
    assert [f.split(":")[0] for f in failures] == ["kernel_guard", "sanitizer_guard"]
    assert "spmm-k4" in failures[0] and "sanitizer-overhead" in failures[1]


def test_retired_options_are_gone(capsys):
    # the ledger times the scheme-dependent and workload paths now
    with pytest.raises(TypeError):
        spmvm_suite(quick=True, nrows=300, scheme="task_mode")
    with pytest.raises(TypeError):
        spmvm_suite(quick=True, nrows=300, workload=False)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--quick", "--scheme", "task_mode"])
    assert exc.value.code == 2
    assert "--scheme" in capsys.readouterr().err


# ----------------------------------------------------------------- CLI


def test_cli_bench_quick(tiny_suite, tmp_path, capsys, monkeypatch):
    # argument plumbing, printing and the file — over the sub-guard tiny
    # results, so no wall-clock kernel guard runs in tier-1 (CI's
    # bench-smoke job runs the real `repro bench --quick`)
    calls = []

    def fake_suite(**kwargs):
        calls.append(kwargs)
        return tiny_suite

    monkeypatch.setattr(repro.bench, "spmvm_suite", fake_suite)
    out = tmp_path / "BENCH_spmvm.json"
    rc = main(["bench", "--quick", "--seed", "3", "--output", str(out)])
    assert rc == 0
    assert calls == [{"quick": True, "seed": 3}]
    data = json.loads(out.read_text())
    assert data["schema"] == "repro-bench/1"
    assert data["quick"] is True
    assert {r["name"] for r in data["results"]} == EXPECTED_NAMES
    printed = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert name in printed
    assert "FAIL" not in printed
    assert str(out) in printed


def test_cli_bench_reports_before_it_gates(tiny_suite, tmp_path, capsys, monkeypatch):
    def broken_guard(results):
        raise AssertionError("spmm-k4: per-column speedup_vs_spmv is 0.900")

    monkeypatch.setattr(repro.bench, "spmvm_suite", lambda **kwargs: tiny_suite)
    monkeypatch.setattr(
        bench_suite, "GROUPS",
        (("kernel", None, broken_guard),) + tuple(GROUPS[1:]),
    )
    out = tmp_path / "bench.json"
    rc = main(["bench", "--quick", "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    for name in EXPECTED_NAMES:
        assert name in captured.out  # every result printed before the gate
    assert "FAIL broken_guard: spmm-k4: per-column speedup_vs_spmv is 0.900" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert {r["name"] for r in json.loads(out.read_text())["results"]} == EXPECTED_NAMES
