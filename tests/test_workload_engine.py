"""The cluster engine end to end (repro.workload.engine + report).

The slow module-scoped fixtures run the reference-trace studies once;
they double as the PR's acceptance tests: EASY beats FCFS on
utilisation (fat tree), node-aware beats random on p99 latency without
moving more wire bytes (loaded torus), and two co-running
communication-heavy jobs each see less effective bandwidth than one
running alone on a shared torus.
"""

import json

import pytest

from repro.machine.presets import cray_xe6_cluster, westmere_cluster
from repro.workload import (
    BSLD_TAU,
    ClusterEngine,
    Job,
    compare_policies,
    export_job_trace,
    policy_table,
    reference_trace,
    render_report,
    run_workload,
    service_stream,
    synthetic_stream,
)


def _tiny_jobs(n=4, n_nodes=1, solver="cg", iterations=2):
    return [
        Job(
            job_id=i, name=f"t{i}", solver=solver, submit=i * 1e-5,
            n_nodes=n_nodes, nrows=128, nnzr=5.0, iterations=iterations,
            walltime=1e-3, seed=i,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def small_run():
    """Six tiny jobs on two fat-tree nodes (queueing forced)."""
    return run_workload(_tiny_jobs(6, n_nodes=2), westmere_cluster(2))


class TestEngineBasics:
    def test_all_jobs_complete_with_consistent_times(self, small_run):
        assert [r.job.job_id for r in small_run.records] == list(range(6))
        for r in small_run.records:
            assert r.start >= r.job.submit
            assert r.end > r.start
            assert r.end <= small_run.makespan
            assert len(r.nodes) == r.job.n_nodes
            assert r.bytes_transferred > 0  # 2 ranks: halo + dot traffic
            assert r.messages_sent > 0
            assert r.slowdown >= 1.0

    def test_concurrent_jobs_never_share_nodes(self, small_run):
        rs = small_run.records
        for i, a in enumerate(rs):
            for b in rs[i + 1 :]:
                overlap = min(a.end, b.end) - max(a.start, b.start)
                if overlap > 0:
                    assert not (set(a.nodes) & set(b.nodes))

    def test_utilisation_and_summary(self, small_run):
        u = small_run.utilisation()
        assert 0.0 < u <= 1.0
        per_node = small_run.per_node_utilisation()
        assert len(per_node) == 2
        assert sum(per_node) * 2 / 2 == pytest.approx(u * 2)
        s = small_run.summary()
        for key in ("p50", "p90", "p99", "throughput_jps", "utilisation",
                    "mean_wait", "mean_slowdown", "max_slowdown"):
            assert key in s
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]

    def test_deterministic_replay(self):
        jobs = _tiny_jobs(4, n_nodes=2)
        a = run_workload(jobs, westmere_cluster(2))
        b = run_workload(jobs, westmere_cluster(2))
        assert [(r.start, r.end, r.nodes) for r in a.records] == [
            (r.start, r.end, r.nodes) for r in b.records
        ]

    def test_render_report_mentions_the_metrics(self, small_run):
        text = render_report(small_run)
        assert "p99" in text and "utilisation" in text and "slowdown" in text

    def test_rejects_task_mode(self):
        with pytest.raises(ValueError, match="task.mode|task_mode"):
            ClusterEngine(westmere_cluster(2), scheme="task_mode")

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            run_workload([], westmere_cluster(2))

    def test_rejects_job_wider_than_machine(self):
        with pytest.raises(ValueError, match="nodes"):
            run_workload(_tiny_jobs(1, n_nodes=4), westmere_cluster(2))

    def test_service_stream_runs_end_to_end(self):
        jobs = service_stream(12, seed=1, rate=1e5, n_nodes=1, nrows=128, nnzr=5.0)
        result = run_workload(jobs, westmere_cluster(2))
        assert len(result.records) == len(jobs)
        # coalesced batches carry their width into the sweep program
        assert sum(r.job.block_k for r in result.records) == 12

    def test_serve_stream_report_bridges_to_jobs(self):
        """A measured serve run replays as a schedulable job stream."""
        from repro.serve.driver import StreamReport

        report = StreamReport(
            matrix_label="tiny", nrows=128, nnz=640, nranks=2, scheme="no_overlap",
            requests=6, concurrency=2, max_batch=4,
            build_seconds=0.01, wall_seconds=3e-4, latencies=(1e-4,) * 6,
            batch_widths=(4, 2), verified=0,
        )
        jobs = report.workload_jobs(n_nodes=1)
        assert [j.block_k for j in jobs] == [4, 2]
        assert sum(j.block_k for j in jobs) == report.requests
        result = run_workload(jobs, westmere_cluster(2))
        assert len(result.records) == 2

    def test_synthetic_stream_runs_end_to_end(self):
        jobs = synthetic_stream(
            8, seed=2, rate=1e5, node_choices=(1, 2),
            nrows_range=(128, 256), iterations_range=(2, 4),
        )
        result = run_workload(jobs, cray_xe6_cluster(2), placement="node-aware")
        assert len(result.records) == 8


class TestJobTrace:
    def test_actors_are_prefixed_per_job(self):
        result = run_workload(
            _tiny_jobs(2, n_nodes=2), westmere_cluster(2), trace=True
        )
        assert result.trace is not None
        actors = set(result.trace.actors())
        assert any(a.startswith("job0/rank") for a in actors)
        assert any(a.startswith("job1/rank") for a in actors)

    def test_chrome_export_round_trip(self, tmp_path):
        result = run_workload(
            _tiny_jobs(2, n_nodes=2), westmere_cluster(2), trace=True
        )
        path = export_job_trace(result, tmp_path / "w.json")
        doc = json.loads(path.read_text())
        # thread-name metadata events carry the job-prefixed actor names
        names = {
            ev["args"].get("name", "")
            for ev in doc["traceEvents"]
            if ev.get("name") == "thread_name"
        }
        assert any(n.startswith("job0/") for n in names)
        assert any(n.startswith("job1/") for n in names)

    def test_export_without_trace_raises(self, small_run, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            export_job_trace(small_run, tmp_path / "w.json")


# ----------------------------------------------------------------------
# acceptance: the reference-trace guard properties
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scheduling_results():
    """FCFS vs EASY on the fat tree, where runtimes are policy-independent."""
    return compare_policies(
        reference_trace(), lambda: westmere_cluster(16),
        schedulers=("fcfs", "easy"), placements=("first-fit",),
    )


@pytest.fixture(scope="module")
def placement_results():
    """random vs node-aware under EASY on the loaded torus."""
    return compare_policies(
        reference_trace(),
        lambda: cray_xe6_cluster(16, background_load=0.85),
        schedulers=("easy",), placements=("random", "node-aware"), seed=11,
    )


class TestAcceptance:
    def test_easy_backfilling_beats_fcfs_utilisation(self, scheduling_results):
        fcfs = scheduling_results[("fcfs", "first-fit")]
        easy = scheduling_results[("easy", "first-fit")]
        assert easy.utilisation() > fcfs.utilisation()
        # backfilling shortens the makespan; it never changes runtimes here
        assert easy.makespan < fcfs.makespan

    def test_easy_improves_mean_bounded_slowdown(self, scheduling_results):
        fcfs = scheduling_results[("fcfs", "first-fit")]
        easy = scheduling_results[("easy", "first-fit")]
        assert easy.summary()["mean_slowdown"] < fcfs.summary()["mean_slowdown"]

    def test_node_aware_beats_random_p99(self, placement_results):
        rand = placement_results[("easy", "random")]
        aware = placement_results[("easy", "node-aware")]
        assert aware.summary()["p99"] < rand.summary()["p99"]

    def test_node_aware_never_moves_more_wire_bytes(self, placement_results):
        rand = placement_results[("easy", "random")]
        aware = placement_results[("easy", "node-aware")]
        assert aware.interconnect_bytes() <= rand.interconnect_bytes()
        assert aware.summary()["hop_sum"] <= rand.summary()["hop_sum"]

    def test_co_running_jobs_share_torus_bandwidth(self):
        """Two communication-heavy jobs on disjoint nodes of one loaded
        torus must each observe lower effective bandwidth than alone."""
        def job(i):
            return Job(
                job_id=i, name=f"c{i}", solver="cg", submit=0.0, n_nodes=2,
                nrows=2048, nnzr=12.0, iterations=24, walltime=1e-2, seed=42 + i,
            )

        cluster = lambda: cray_xe6_cluster(4, background_load=0.95)  # noqa: E731
        alone = run_workload([job(0)], cluster()).records[0]
        shared = run_workload([job(0), job(1)], cluster()).records
        assert {tuple(r.nodes) for r in shared} == {(0, 1), (2, 3)}
        for r in shared:
            assert r.effective_bandwidth < alone.effective_bandwidth

    def test_policy_table_covers_all_combinations(self, scheduling_results):
        table = policy_table(scheduling_results).render()
        assert "fcfs" in table and "easy" in table

    def test_compare_policies_validates_factory(self):
        with pytest.raises(TypeError, match="ClusterSpec"):
            compare_policies(
                _tiny_jobs(1), lambda: "not a cluster",
                schedulers=("fcfs",), placements=("first-fit",),
            )


def test_bsld_tau_matches_job_timescale():
    """The workload BSLD threshold sits at the generated job durations."""
    assert BSLD_TAU == pytest.approx(1.0e-4)
