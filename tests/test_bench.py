"""The guard suite: its one estimator, its rows and their guards."""

import numpy as np
import pytest

import repro.bench
from repro.bench import BenchResult, TimingStats, spmvm_suite
from repro.bench import suite as bench_suite
from repro.bench.suite import GROUPS, GUARD_MIN_ROWS, guard_failures, kernel_guard
from repro.cli import main

EXPECTED_NAMES = {
    "spmm-k1", "spmm-k4", "spmm-k16",
    "program-overhead",
    "sanitizer-overhead", "recorder-overhead",
}


# ------------------------------------------------------- the estimator


class _FakeClock:
    """``time.perf_counter`` stand-in: each timed call costs what its script says."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def _scripted(clock, calls, name, costs):
    """A callable that logs *name* and advances *clock* by the next of *costs*."""
    costs = iter(costs)

    def fn():
        calls.append(name)
        clock.now += next(costs)

    return fn


def test_paired_ratio_interleaves_ref_and_test(monkeypatch):
    clock, calls = _FakeClock(), []
    monkeypatch.setattr(bench_suite, "time", clock)
    ref = _scripted(clock, calls, "ref", [9.0, 2.0, 4.0, 3.0])  # first call is the warm-up
    test = _scripted(clock, calls, "test", [9.0, 5.0, 3.0, 6.0])
    ratio, ref_stats, test_stats = bench_suite._paired_ratio(
        ref, test, warmup=1, rounds=3, stop=10.0
    )
    # warm-up pair, then ref/test/ref/test/... so both sides see the same machine state
    assert calls == ["ref", "test"] * 4
    assert ref_stats.samples == (2.0, 4.0, 3.0)  # the warm-up cost is not a sample
    assert test_stats.samples == (5.0, 3.0, 6.0)
    assert ratio == min(test_stats.samples) / min(ref_stats.samples) == 1.5


def test_paired_ratio_stops_early_and_keeps_the_lowest_trial(monkeypatch):
    clock, calls = _FakeClock(), []
    monkeypatch.setattr(bench_suite, "time", clock)
    # per trial: one warm-up + one timed round; test/ref reads 3.0, 1.5, 2.0
    ref = _scripted(clock, calls, "ref", [1.0, 1.0] * 3)
    test = _scripted(clock, calls, "test", [1.0, 3.0, 1.0, 1.5, 1.0, 2.0])
    ratio, _ref, test_stats = bench_suite._paired_ratio(
        ref, test, warmup=1, rounds=1, stop=0.5, trials=3
    )
    assert ratio == 1.5 and test_stats.samples == (1.5,)  # lowest of the three trials
    assert len(calls) == 12  # never at or under `stop`: all three trials ran

    calls.clear()
    ref = _scripted(clock, calls, "ref", [1.0, 1.0] * 3)
    test = _scripted(clock, calls, "test", [1.0, 3.0, 1.0, 1.5, 1.0, 2.0])
    ratio, _ref, _test = bench_suite._paired_ratio(
        ref, test, warmup=1, rounds=1, stop=1.5, trials=3
    )
    assert ratio == 1.5
    assert len(calls) == 8  # the second trial reached `stop`: the third never ran


def test_timing_stats_single_sample():
    s = TimingStats(samples=(0.25,))
    assert s.min == s.mean == 0.25


# --------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def tiny_suite():
    return spmvm_suite(quick=True, nrows=300, nranks=2)


def test_suite_covers_all_paths(tiny_suite):
    assert {r.name for r in tiny_suite} == EXPECTED_NAMES
    # the distributed, serve and workload paths are timed by
    # benchmarks/ledger only; what is left is one row of GROUPS each
    groups = list(dict.fromkeys(r.group for r in tiny_suite))
    assert groups == list(dict.fromkeys(g for g, _, _ in GROUPS)) == ["kernel", "program", "check"]
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
    assert r.params["scheme"] == "task_mode"
    assert r.derived["guard_max"] == SANITIZER_OVERHEAD_MAX
    assert r.derived["events_observed"] > 0
    assert r.derived["plain_seconds"] > 0
    # 300 rows is below GUARD_MIN_ROWS: reported, not enforced
    # (sub-millisecond sweeps put thread spin-up jitter in the ratio)
    assert r.params["nrows"] < GUARD_MIN_ROWS
    assert sanitizer_guard(tiny_suite) == []


def test_recorder_overhead_reported(tiny_suite):
    # the row that was benchmarks/test_check_overhead.py's recorder gate:
    # plain vs CommRecorder-attached no_overlap call, the bound carried over
    from repro.bench.suite import RECORDER_OVERHEAD_MAX, recorder_guard

    (r,) = [r for r in tiny_suite if r.name == "recorder-overhead"]
    assert r.group == "check"
    assert r.params["scheme"] == "no_overlap"
    assert r.derived["guard_max"] == RECORDER_OVERHEAD_MAX == 1.15
    assert r.derived["events_observed"] > 0
    assert r.derived["plain_seconds"] > 0
    assert recorder_guard(tiny_suite) == []  # below guard size


def test_a_finding_on_the_clean_sweep_fails_the_bench(monkeypatch):
    # finalize().ok is required before an observer's timing counts
    from repro.check import CommRecorder, Finding
    from repro.matrices import random_sparse

    def dirty_finalize(self, context=""):
        report = clean_finalize(self, context)
        report.findings.append(Finding(kind="leaked-request", message="seeded"))
        return report

    clean_finalize = CommRecorder.finalize
    monkeypatch.setattr(CommRecorder, "finalize", dirty_finalize)
    run = bench_suite._Run(
        A=random_sparse(300, nnzr=15.0, seed=7, ensure_diagonal=True),
        rng=np.random.default_rng(7), nranks=2, warmup=1, repeat=1,
    )
    with pytest.raises(AssertionError, match="recorder-overhead.*leaked-request: seeded"):
        bench_suite._recorder_benches(run)


def _observer_result(name, nrows, overhead):
    scheme, bound = {
        "sanitizer-overhead": ("task_mode", 1.2), "recorder-overhead": ("no_overlap", 1.15),
    }[name]
    return BenchResult(
        name=name, group="check", warmup=1, repeat=5,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "nranks": 2, "scheme": scheme},
        derived={"overhead_vs_plain": overhead, "guard_max": bound},
    )


def _sanitizer_result(nrows, overhead):
    return _observer_result("sanitizer-overhead", nrows, overhead)


def _recorder_result(nrows, overhead):
    return _observer_result("recorder-overhead", nrows, overhead)


def test_sanitizer_guard_enforces_at_guard_size():
    from repro.bench.suite import recorder_guard, sanitizer_guard

    ok = _sanitizer_result(4000, 1.1)
    assert sanitizer_guard([ok]) == ["sanitizer-overhead"]
    with pytest.raises(AssertionError, match="sanitizer-overhead"):
        sanitizer_guard([_sanitizer_result(4000, 1.5)])
    # sub-guard sizes are never enforced
    tiny = _sanitizer_result(GUARD_MIN_ROWS - 1, 1.5)
    assert sanitizer_guard([tiny]) == []
    # the recorder's row shares the group and has its own guard and bound:
    # 1.18 passes the sanitizer's 1.2 and fails the recorder's 1.15
    both = [_sanitizer_result(4000, 1.18), _recorder_result(4000, 1.1)]
    assert sanitizer_guard(both) == ["sanitizer-overhead"]
    assert recorder_guard(both) == ["recorder-overhead"]
    with pytest.raises(AssertionError, match="recorder-overhead"):
        recorder_guard([_recorder_result(4000, 1.18)])


# ----------------------------------------------------- the group table


def test_every_group_has_a_guard():
    # one synthetic passing result set per row of GROUPS, at any size
    passing = {
        "kernel_guard": lambda n: [_guard_result("spmm-k1", 1, n, 1.0),
                                   _guard_result("spmm-k4", 4, n, 1.2)],
        "program_guard": lambda n: [_program_result(n, 0.02)],
        "sanitizer_guard": lambda n: [_sanitizer_result(n, 1.1)],
        "recorder_guard": lambda n: [_recorder_result(n, 1.1)],
    }
    # one row per guarded ratio; `check` holds both observers' rows
    assert [(g, guard.__name__) for g, _, guard in GROUPS] == [
        ("kernel", "kernel_guard"), ("program", "program_guard"),
        ("check", "sanitizer_guard"), ("check", "recorder_guard"),
    ]
    for _group, bench, guard in GROUPS:
        assert callable(bench)
        mine = passing[guard.__name__](GUARD_MIN_ROWS)
        others = [r for name, make in passing.items() if name != guard.__name__
                  for r in make(GUARD_MIN_ROWS)]
        enforced = guard(mine + others)
        assert enforced and set(enforced) <= {r.name for r in mine}
        assert guard(others) == []  # a guard reads its own row only
        # below guard size nothing timed is enforced
        assert guard(passing[guard.__name__](GUARD_MIN_ROWS - 1)) == []
    assert guard_failures([r for make in passing.values()
                           for r in make(GUARD_MIN_ROWS)]) == []
    # the package surface: the records, the four guards, their bounds
    assert set(repro.bench.__all__) == {
        "BenchResult", "TimingStats", "BLOCK_WIDTHS",
        "RECORDER_OVERHEAD_MAX", "SANITIZER_OVERHEAD_MAX",
        "kernel_guard", "program_guard", "recorder_guard", "sanitizer_guard",
        "spmvm_suite",
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
    # ...and nothing reads a results file, so none is written
    for argv in (["bench", "--quick", "--scheme", "task_mode"],
                 ["bench", "--quick", "--output", "bench.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[2] in capsys.readouterr().err
    # one estimator: the spare timing loop and the file writer are not importable
    for name in ("time_callable", "write_results", "BENCH_SCHEMA"):
        assert not hasattr(repro.bench, name)
        assert not hasattr(repro.bench.harness, name)


# ----------------------------------------------------------------- CLI


def test_cli_bench_quick(tiny_suite, capsys, monkeypatch):
    # argument plumbing and printing — over the sub-guard tiny results,
    # so no wall-clock kernel guard runs in tier-1 (CI's bench-smoke job
    # runs the real `repro bench --quick`)
    from repro.sparse import native

    calls = []

    def fake_suite(**kwargs):
        calls.append(kwargs)
        return tiny_suite

    monkeypatch.setattr(repro.bench, "spmvm_suite", fake_suite)
    rc = main(["bench", "--quick", "--seed", "3"])
    assert rc == 0
    assert calls == [{"quick": True, "seed": 3}]
    printed = capsys.readouterr().out
    # which executor of the row sums was timed comes first
    assert printed.splitlines()[0] == f"csr row sums: {native.status().describe()}"
    for name in EXPECTED_NAMES:
        assert name in printed
    assert "FAIL" not in printed


def test_cli_bench_reports_before_it_gates(tiny_suite, capsys, monkeypatch):
    def broken_guard(results):
        raise AssertionError("spmm-k4: per-column speedup_vs_spmv is 0.900")

    monkeypatch.setattr(repro.bench, "spmvm_suite", lambda **kwargs: tiny_suite)
    monkeypatch.setattr(
        bench_suite, "GROUPS",
        (("kernel", None, broken_guard),) + tuple(GROUPS[1:]),
    )
    rc = main(["bench", "--quick"])
    assert rc == 1
    captured = capsys.readouterr()
    for name in EXPECTED_NAMES:
        assert name in captured.out  # every result printed before the gate
    assert "FAIL broken_guard: spmm-k4: per-column speedup_vs_spmv is 0.900" in captured.out
    assert "Traceback" not in captured.out + captured.err
