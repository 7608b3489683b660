"""Arrival streams and the repro-trace/1 format (repro.workload.streams).

The hypothesis properties pin down what makes the generators usable for
scheduler comparisons: determinism (same seed → bit-identical stream),
physical sanity (non-negative interarrivals, positive sizes), the
advertised mean arrival rate, and a lossless trace round trip.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    ARRIVAL_KINDS,
    SOLVERS,
    TRACE_SCHEMA,
    Job,
    dump_trace,
    estimate_walltime,
    jobs_from_dict,
    jobs_to_dict,
    load_trace,
    reference_trace,
    synthetic_stream,
)

_SEED = st.integers(min_value=0, max_value=2**31 - 1)
_N = st.integers(min_value=1, max_value=60)


def _job(job_id=0, **kw):
    base = dict(
        job_id=job_id, name=f"j{job_id}", solver="cg", submit=0.0,
        n_nodes=2, nrows=256, nnzr=6.0, iterations=4, walltime=1e-3,
    )
    base.update(kw)
    return Job(**base)


class TestJob:
    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            _job(solver="gmres")

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError, match="submit"):
            _job(submit=-1.0)

    @pytest.mark.parametrize(
        "field", ["n_nodes", "nrows", "iterations", "block_k"]
    )
    def test_rejects_nonpositive_ints(self, field):
        with pytest.raises(ValueError, match=field):
            _job(**{field: 0})

    def test_dots_per_iteration(self):
        assert _job(solver="spmvm").dots_per_iteration == 0
        assert _job(solver="cg").dots_per_iteration == 2


class TestEstimateWalltime:
    def test_positive_and_scales_with_work(self):
        short = estimate_walltime("spmvm", 512, 6.0, 4, 1)
        long = estimate_walltime("spmvm", 512, 6.0, 8, 1)
        assert 0 < short < long

    def test_more_nodes_means_shorter_estimate(self):
        one = estimate_walltime("cg", 4096, 10.0, 8, 1)
        four = estimate_walltime("cg", 4096, 10.0, 8, 4)
        assert four < one

    def test_overestimate_scales_linearly(self):
        base = estimate_walltime("cg", 1024, 8.0, 8, 2)
        assert estimate_walltime(
            "cg", 1024, 8.0, 8, 2, overestimate=2.0
        ) == pytest.approx(2.0 * base)


class TestSyntheticStream:
    @given(seed=_SEED, n=_N, arrival=st.sampled_from(ARRIVAL_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_stream(self, seed, n, arrival):
        a = synthetic_stream(n, seed=seed, arrival=arrival)
        b = synthetic_stream(n, seed=seed, arrival=arrival)
        assert a == b  # frozen dataclasses: field-for-field equality

    @given(seed=_SEED, n=_N, arrival=st.sampled_from(ARRIVAL_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_submit_times_nondecreasing_and_fields_valid(self, seed, n, arrival):
        jobs = synthetic_stream(n, seed=seed, arrival=arrival)
        assert len(jobs) == n
        assert [j.job_id for j in jobs] == list(range(n))
        for a, b in zip(jobs, jobs[1:]):
            assert b.submit >= a.submit  # non-negative interarrivals
        for j in jobs:
            assert j.solver in SOLVERS
            assert j.submit >= 0 and j.walltime > 0 and j.n_nodes >= 1

    @given(seed=_SEED)
    @settings(max_examples=20, deadline=None)
    def test_poisson_empirical_rate_matches(self, seed):
        # mean of 500 exponential gaps is within 20% of 1/rate whp;
        # a systematic unit error (ms vs s, rate vs period) is 1000x off
        rate = 250.0
        jobs = synthetic_stream(500, seed=seed, rate=rate)
        mean_gap = jobs[-1].submit / len(jobs)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.2)

    def test_distinct_seeds_differ(self):
        assert synthetic_stream(20, seed=0) != synthetic_stream(20, seed=1)

    def test_solver_mix_is_respected(self):
        jobs = synthetic_stream(30, seed=3, solver_mix={"lanczos": 1.0})
        assert {j.solver for j in jobs} == {"lanczos"}

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="arrival"):
            synthetic_stream(5, arrival="uniform")
        with pytest.raises(ValueError, match="alpha"):
            synthetic_stream(5, arrival="heavy", heavy_tail_alpha=1.0)
        with pytest.raises(ValueError, match="solver"):
            synthetic_stream(5, solver_mix={"gmres": 1.0})
        with pytest.raises(ValueError, match="zero"):
            synthetic_stream(5, solver_mix={"cg": 0.0})


class TestTraceRoundTrip:
    @given(seed=_SEED, n=_N)
    @settings(max_examples=20, deadline=None)
    def test_dump_load_is_identity(self, seed, n, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.json"
        jobs = synthetic_stream(n, seed=seed)
        dump_trace(jobs, path)
        assert load_trace(path) == jobs

    def test_schema_tag_is_written(self, tmp_path):
        path = dump_trace(reference_trace(), tmp_path / "ref.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == TRACE_SCHEMA

    def test_reference_trace_round_trips(self, tmp_path):
        # the dump canonicalises to submit order (the schema requires it);
        # round trip is lossless up to that reordering
        jobs = sorted(reference_trace(), key=lambda j: (j.submit, j.job_id))
        assert load_trace(dump_trace(jobs, tmp_path / "r.json")) == jobs

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            jobs_from_dict({"schema": "repro-trace/999", "jobs": []})

    def test_missing_jobs_list_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            jobs_from_dict({"schema": TRACE_SCHEMA})

    def test_unknown_field_rejected(self):
        doc = jobs_to_dict([_job()])
        doc["jobs"][0]["priority"] = 3
        with pytest.raises(ValueError, match="job 0"):
            jobs_from_dict(doc)

    def test_unsorted_submits_rejected(self):
        doc = jobs_to_dict([_job(0, submit=1.0), _job(1, submit=2.0)])
        doc["jobs"].reverse()  # hand-edited trace out of order
        with pytest.raises(ValueError, match="submit-sorted"):
            jobs_from_dict(doc)

    def test_duplicate_job_ids_rejected(self):
        doc = jobs_to_dict([_job(7), _job(7, submit=1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            jobs_from_dict(doc)


def test_reference_trace_shape():
    """The documented guard scenario: blocked wide job + backfillable tail."""
    jobs = reference_trace()
    assert len(jobs) == 30
    wide = jobs[1]
    assert wide.n_nodes == 14  # head-blocks a 16-node machine behind med-0
    assert {j.solver for j in jobs} == set(SOLVERS)
    assert all(j.submit >= 0 for j in jobs)
    assert len({j.job_id for j in jobs}) == len(jobs)
