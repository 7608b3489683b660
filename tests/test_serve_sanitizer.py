"""Lock discipline of the persistent service, proven by the sanitizer.

The SolverService promises that every touch of its shared state
(pending queue, inboxes, batch parts, counters, lifecycle state)
happens under ``self._lock``.  These tests attach a
:class:`ThreadSanitizer` — which turns that lock into a
:class:`TrackedCondition` feeding happens-before edges — and hammer the
service from several client threads at once.  A clean service reports
*zero* races; the companion seeded fixture (thread-race-unlocked-service)
proves the same harness does fire when a thread skips the lock.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.check import ThreadSanitizer
from repro.serve import SolverService, build_model
from repro.sparse import spmv

NRANKS = 2
SUBMITTERS = 3
PER_THREAD = 4


@pytest.fixture(scope="module")
def model(request):
    A = request.getfixturevalue("hmep_tiny")
    return build_model(A, NRANKS, scheme="task_mode")


def _payloads(ncols, count, seed):
    rng = np.random.default_rng(seed)
    # pregenerated: np.random.Generator is not thread-safe, and the test
    # must only exercise the *service's* locking, not numpy's
    return [rng.standard_normal(ncols) for _ in range(count)]


def test_concurrent_submitters_run_race_free(model, hmep_tiny):
    san = ThreadSanitizer()
    xs = [_payloads(hmep_tiny.ncols, PER_THREAD, seed=10 + i) for i in range(SUBMITTERS)]
    results: dict[int, list[np.ndarray]] = {}

    with SolverService(model, sanitizer=san, name="tsan-submit") as svc:

        def client(i):
            out = []
            for x in xs[i]:
                out.append(svc.gather(svc.submit(x), timeout=30.0))
            results[i] = out

        threads = [threading.Thread(target=client, args=(i,)) for i in range(SUBMITTERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = svc.stats

    report = san.finalize()
    assert report.ok, report.render()
    assert report.events_observed > 0
    assert stats["requests"] == SUBMITTERS * PER_THREAD
    for i in range(SUBMITTERS):
        for x, y in zip(xs[i], results[i]):
            np.testing.assert_allclose(y, spmv(hmep_tiny, x), rtol=1e-10)


def test_submit_racing_close_is_race_free(model, hmep_tiny):
    # closing while clients are still submitting is the hairiest path:
    # queue drain, worker teardown, and ServiceClosedError rejections
    # all touch lifecycle state concurrently — and all under the lock
    from repro.serve import ServiceClosedError

    san = ThreadSanitizer()
    xs = _payloads(hmep_tiny.ncols, 8, seed=99)
    outcomes: list[str] = []
    go = threading.Event()

    svc = SolverService(model, sanitizer=san, name="tsan-close")
    try:

        def client():
            go.wait()
            for x in xs:
                try:
                    y = svc.gather(svc.submit(x), timeout=30.0)
                    np.testing.assert_allclose(y, spmv(hmep_tiny, x), rtol=1e-10)
                    outcomes.append("served")
                except ServiceClosedError:
                    outcomes.append("rejected")

        threads = [threading.Thread(target=client) for _ in range(SUBMITTERS)]
        for t in threads:
            t.start()
        go.set()
        svc.close(drain=True, timeout=30.0)  # races with the submitters
        for t in threads:
            t.join()
    finally:
        svc.close(drain=False, timeout=5.0)

    report = san.finalize()
    assert report.ok, report.render()
    # every request either completed correctly or was cleanly rejected
    assert len(outcomes) > 0
    assert set(outcomes) <= {"served", "rejected"}
    assert svc.state in ("closed", "failed")


def test_stats_and_state_probes_race_free_under_load(model, hmep_tiny):
    # observability endpoints are read paths; the lock-discipline rule
    # (and the sanitizer) hold them to the same standard as mutations
    san = ThreadSanitizer()
    xs = _payloads(hmep_tiny.ncols, 6, seed=5)
    stop = threading.Event()

    with SolverService(model, sanitizer=san, name="tsan-probe") as svc:

        def prober():
            while not stop.is_set():
                assert svc.stats["requests"] >= 0
                assert svc.state in ("running", "closing", "closed", "failed")

        t = threading.Thread(target=prober)
        t.start()
        try:
            for x in xs:
                svc.gather(svc.submit(x), timeout=30.0)
        finally:
            stop.set()
            t.join()

    report = san.finalize()
    assert report.ok, report.render()
    assert report.events_observed > 0
