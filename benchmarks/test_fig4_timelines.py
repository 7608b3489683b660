"""Fig. 4 — timeline views of the three kernel versions (simulator traces)."""

import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_fig4


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(scale="small", n_nodes=2)


def test_fig4_report(fig4):
    write_report("fig4_scheme_timelines", fig4.render())


def test_fig4_overlap_structure(fig4):
    # only task mode overlaps communication with computation
    assert fig4.overlap_fraction["no_overlap"] < 0.05
    assert fig4.overlap_fraction["naive_overlap"] < 0.05
    assert fig4.overlap_fraction["task_mode"] > 0.90


def test_fig4_task_mode_shortest_makespan(fig4):
    assert fig4.makespans["task_mode"] <= fig4.makespans["no_overlap"]
    assert fig4.makespans["task_mode"] <= fig4.makespans["naive_overlap"]
