"""Observability layer: Chrome export, metrics, summaries, transfer analysis."""

import json

import pytest

from repro.core import build_halo_plan, simulate_from_plan, simulate_spmvm
from repro.frame import TraceRecorder
from repro.machine.presets import westmere_cluster
from repro.obs import (
    TransferSegment,
    bytes_moved_during,
    chrome_trace_events,
    merge_windows,
    overlap_bytes_with_phase,
    per_op_costs,
    phase_summary,
    simulation_metrics,
    to_chrome_trace,
    transfer_segments,
    write_chrome_trace,
)
from repro.sparse.partition import partition_matrix
from tests.test_program_golden import GOLDEN_SIGNATURES

EAGER = 1024


@pytest.fixture(scope="module")
def traced_runs(hmep_small):
    """One traced single-iteration run per scheme on two Westmere nodes."""
    cluster = westmere_cluster(2)
    plan = build_halo_plan(hmep_small, partition_matrix(hmep_small, 4), with_matrices=False)
    runs = {}
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        runs[scheme] = simulate_from_plan(
            plan, cluster, mode="per-ld", scheme=scheme, kappa=2.5,
            iterations=1, eager_threshold=EAGER, trace=True,
        )
    return runs


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def test_chrome_trace_valid_json_all_schemes(traced_runs, tmp_path):
    for scheme, r in traced_runs.items():
        path = write_chrome_trace(r.trace, tmp_path / f"{scheme}.json")
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in data["traceEvents"]}
        assert {"M", "X", "i"} <= phases


def test_chrome_trace_structure(traced_runs):
    r = traced_runs["task_mode"]
    events = chrome_trace_events(r.trace)
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "rank0" in names and "rank0:comm" in names
    complete = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
    assert {e["name"] for e in complete} >= {"local spMVM", "MPI_Waitall"}
    # every event's tid resolves to a declared thread
    tids = {e["tid"] for e in meta}
    assert all(e["tid"] in tids for e in events)


def test_chrome_trace_one_complete_event_per_executed_op(traced_runs):
    for r in traced_runs.values():
        complete = [e for e in chrome_trace_events(r.trace) if e["ph"] == "X"]
        executed = sum(cell["count"] for cell in per_op_costs(r.trace).values())
        assert len(complete) == executed == len(r.trace.spans)
        assert all(set(e["args"]) == {"op", "program"} for e in complete)


def test_chrome_trace_instant_events_carry_args(traced_runs):
    events = to_chrome_trace(traced_runs["task_mode"].trace)["traceEvents"]
    started = [e for e in events if e["ph"] == "i" and e["name"] == "wire_started"]
    assert started
    assert all("protocol" in e["args"] and "nbytes" in e["args"] for e in started)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_simulation_metrics_flat_and_consistent(traced_runs):
    for r in traced_runs.values():
        m = simulation_metrics(r)
        assert all(isinstance(v, float) for v in m.values())
        assert m["sim.total_seconds"] > 0
        assert m["mpi.msg_posted"] == 2 * m["mpi.wire_started"]  # send + recv posts
        assert m["mpi.msg_completed"] == m["mpi.wire_started"]
        assert m["mpi.gate_open"] == m["mpi.gate_close"]
        # byte accounting matches what the MPI layer reports: internode
        # messages cross the NICs, intranode ones the shared-memory pipe
        assert m["resource.nic_out.bytes_moved"] + m["resource.intra.bytes_moved"] == (
            pytest.approx(m["sim.bytes_transferred"], rel=1e-6)
        )


def test_metrics_resource_utilization_present(traced_runs):
    m = simulation_metrics(traced_runs["no_overlap"])
    assert m["resource.membus.busy_fraction_max"] > 0
    assert m["resource.membus.max_concurrent_flows"] >= 1
    assert m["resource.nic_out.flows_started"] > 0


def test_gating_counters_differ_between_schemes(traced_runs):
    naive = simulation_metrics(traced_runs["naive_overlap"])
    task = simulation_metrics(traced_runs["task_mode"])
    # naive overlap posts rendezvous sends outside MPI: flows start gated and
    # are later resumed inside Waitall; task mode's comm thread keeps the
    # gate open so resumes dominate there too but Waitall blocks differ
    assert naive["mpi.msg_resumed"] > 0
    assert task["mpi.msg_resumed"] > 0


# ----------------------------------------------------------------------
# phase summary
# ----------------------------------------------------------------------
def test_phase_summary_table(traced_runs):
    table = phase_summary(traced_runs["task_mode"].trace, title="t")
    text = table.render()
    assert "local spMVM" in text and "MPI_Waitall" in text
    # one row per (program, op) of the per-op costs
    keys = [(row[0], row[1]) for row in table.rows]
    assert sorted(keys) == sorted(per_op_costs(traced_runs["task_mode"].trace))
    totals = [row[4] for row in table.rows]
    assert totals == sorted(totals, reverse=True)


# ----------------------------------------------------------------------
# per-op cost attribution
# ----------------------------------------------------------------------
def test_per_op_costs_count_every_op_and_time_the_phase_intervals(hmep_tiny):
    iterations = 3
    r = simulate_spmvm(
        hmep_tiny, westmere_cluster(2), mode="per-ld", scheme="task_mode",
        kappa=2.5, iterations=iterations, eager_threshold=EAGER, trace=True,
    )
    costs = per_op_costs(r.trace)
    signature = GOLDEN_SIGNATURES["task_mode"]
    ops = {t for t in signature if t not in ("COMM_THREAD{", "}")}
    # one key per op of the program; each op once per rank and iteration
    # for every time it occurs in the frozen signature
    assert set(costs) == {("task_mode/k1", op) for op in ops}
    for (_pid, op), cell in costs.items():
        assert cell["count"] == iterations * r.n_ranks * signature.count(op), op
    # the per-op costs and the phase windows read the same spans
    rows = {row[1]: row for row in phase_summary(r.trace).rows}
    for op, label in (("LOCAL_SPMVM", "local spMVM"), ("REMOTE_SPMVM", "remote spMVM")):
        seconds = costs[("task_mode/k1", op)]["seconds"]
        assert seconds > 0
        assert rows[op][2] == label
        assert seconds * 1e3 == pytest.approx(rows[op][4], rel=1e-12)
        windows = r.trace.phase_windows(label)
        assert seconds == pytest.approx(sum(hi - lo for lo, hi in windows), rel=1e-12)


@pytest.mark.parametrize("scheme", sorted(GOLDEN_SIGNATURES))
def test_comm_thread_ops_are_attributed_to_the_comm_actor(traced_runs, scheme):
    """Ops inside a COMM_THREAD body (task mode's POST_SENDS and WAITALL)
    are spans of ``rank{r}:comm``; every other op is a span of ``rank{r}``."""
    signature = GOLDEN_SIGNATURES[scheme]
    body = (
        set(signature[signature.index("COMM_THREAD{") + 1:signature.index("}")])
        if "COMM_THREAD{" in signature else set()
    )
    spans = traced_runs[scheme].trace.spans
    assert spans
    for span in spans:
        rank = span.actor.split(":")[0]
        expected = f"{rank}:comm" if span.args["op"] in body else rank
        assert span.actor == expected, span
    if scheme == "task_mode":
        assert body == {"POST_SENDS", "WAITALL"}


# ----------------------------------------------------------------------
# transfer-segment analysis
# ----------------------------------------------------------------------
def test_transfer_segments_account_full_message(traced_runs):
    for r in traced_runs.values():
        segs = transfer_segments(r.trace, protocol="rendezvous")
        by_mid = {}
        for s in segs:
            by_mid[s.mid] = by_mid.get(s.mid, 0.0) + s.nbytes
        completed = {
            ev.args["mid"]: ev.args["nbytes"]
            for ev in r.trace.iter_events()
            if ev.name == "msg_completed" and any(s.mid == ev.args["mid"] for s in segs)
        }
        for mid, nbytes in completed.items():
            assert by_mid[mid] == pytest.approx(nbytes, rel=1e-9)


def test_merge_windows():
    assert merge_windows([(0, 1), (0.5, 2), (3, 4)]) == [(0, 2), (3, 4)]
    assert merge_windows([]) == []
    assert merge_windows([(1, 1)]) == []  # empty window dropped


def test_bytes_moved_during_linear_attribution():
    seg = TransferSegment(0, 0, 1, "rendezvous", start=0.0, end=2.0, nbytes=100.0)
    assert bytes_moved_during([seg], [(0.0, 1.0)]) == pytest.approx(50.0)
    assert bytes_moved_during([seg], [(0.0, 2.0)]) == pytest.approx(100.0)
    assert bytes_moved_during([seg], [(5.0, 6.0)]) == 0.0
    # overlapping windows are merged, not double-counted
    assert bytes_moved_during([seg], [(0.0, 1.5), (1.0, 2.0)]) == pytest.approx(100.0)


def test_overlap_bytes_validate_progress_semantics(traced_runs):
    """The paper's Sect. 3 claim, from trace data: vector modes move no
    rendezvous bytes during the local spMVM, task mode moves all of them."""
    assert overlap_bytes_with_phase(traced_runs["no_overlap"].trace, "full spMVM") == 0.0
    assert overlap_bytes_with_phase(traced_runs["naive_overlap"].trace) == 0.0
    task_bytes = overlap_bytes_with_phase(traced_runs["task_mode"].trace)
    total = sum(
        s.nbytes
        for s in transfer_segments(traced_runs["task_mode"].trace, protocol="rendezvous")
    )
    assert total > 0
    assert task_bytes == pytest.approx(total, rel=1e-6)


def test_phase_windows_of_all_ranks_are_real_phase_occurrences(traced_runs):
    """Without an actor, every window is one rank's phase, not the begin
    of one rank's phase paired with the end of another's."""
    trace = traced_runs["task_mode"].trace
    n_ranks = traced_runs["task_mode"].n_ranks
    for label in ("gather", "local spMVM", "remote spMVM"):
        per_rank = [
            w for rank in range(n_ranks) for w in trace.phase_windows(label, actor=f"rank{rank}")
        ]
        assert sorted(trace.phase_windows(label)) == sorted(per_rank), label


def test_empty_recorder_exports():
    tr = TraceRecorder()
    assert chrome_trace_events(tr) == []
    assert transfer_segments(tr) == []
    assert phase_summary(tr).rows == []
