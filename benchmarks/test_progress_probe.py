"""Sect. 3 — the asynchronous-progress probe (benchmark from Ref. [9])."""

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_progress_probe


@pytest.fixture(scope="module")
def probe():
    return run_progress_probe()


def test_probe_report(probe):
    write_report("progress_probe_sect3", probe.render())


def test_no_async_progress_is_the_default_reality(probe):
    assert probe.no_async_progress < 0.02


def test_progress_thread_and_task_mode_equivalent(probe):
    # the paper's outlook: an MPI progress thread achieves what task mode
    # achieves by hand
    assert probe.async_progress > 0.98
    assert probe.task_mode_workaround > 0.98
    assert abs(probe.async_progress - probe.task_mode_workaround) < 0.02


def test_short_probe():
    result = run_progress_probe(8_000_000, 0.003)
    assert result.no_async_progress < 0.05
