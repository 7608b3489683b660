"""Golden simulated statistics: a host-time-only change moves no bit.

Every simulated figure comes out of one flow engine
(:class:`repro.frame.FlowNetwork`).  This test pins, as ``float.hex()``
strings, what twelve small simulations and the Sect. 3 progress probe
report — total time, bytes moved through the simulated MPI and every
field of every resource's :class:`~repro.frame.ResourceStats` — so a
change that is meant to make the simulator faster and nothing else
must leave all of it bit-identical.

The points cover both machines, the three schemes, k in {1, 4},
asynchronous progress on and off, rendezvous (paused and resumed
flows, forced with a small eager threshold on the tiny matrices),
intranode-only runs and a node-aware comm plan.

The golden values live in ``sim_golden.json`` next to this file.  A
change that is *meant* to move a simulated number regenerates it with
``PYTHONPATH=src python tests/test_sim_golden.py`` and says why.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.core import simulate_spmvm
from repro.experiments.progress_probe import run_progress_probe
from repro.machine import cray_xe6_cluster, westmere_cluster
from repro.matrices import get_matrix

GOLDEN = Path(__file__).with_name("sim_golden.json")

#: name -> (matrix, cluster preset, nodes, simulate_spmvm keywords)
POINTS = {
    "hmep-westmere-2n-no_overlap-k1": (
        "HMeP", "westmere", 2, dict(scheme="no_overlap")),
    "hmep-westmere-2n-naive-k1-rdv": (
        "HMeP", "westmere", 2, dict(scheme="naive_overlap", eager_threshold=64)),
    "hmep-westmere-2n-naive-k1-rdv-async": (
        "HMeP", "westmere", 2,
        dict(scheme="naive_overlap", eager_threshold=64, async_progress=True)),
    "hmep-westmere-2n-task-k1-rdv": (
        "HMeP", "westmere", 2, dict(scheme="task_mode", eager_threshold=64)),
    "hmep-westmere-2n-task-k4": (
        "HMeP", "westmere", 2, dict(scheme="task_mode", block_k=4)),
    "hmep-westmere-2n-per-node-no_overlap-k1": (
        "HMeP", "westmere", 2, dict(mode="per-node", scheme="no_overlap")),
    "hmep-cray-2n-no_overlap-k4-rdv": (
        "HMeP", "cray_xe6", 2, dict(scheme="no_overlap", block_k=4, eager_threshold=64)),
    "hmep-cray-2n-task-k1": (
        "HMeP", "cray_xe6", 2, dict(scheme="task_mode")),
    "samg-westmere-2n-per-core-naive-k4-async": (
        "sAMG", "westmere", 2,
        dict(mode="per-core", scheme="naive_overlap", block_k=4, async_progress=True)),
    "samg-westmere-1n-per-core-task-k1-rdv": (
        "sAMG", "westmere", 1, dict(mode="per-core", scheme="task_mode", eager_threshold=64)),
    "samg-cray-2n-naive-k1-rdv": (
        "sAMG", "cray_xe6", 2, dict(scheme="naive_overlap", eager_threshold=64)),
    "samg-cray-2n-task-k4-rdv-node-aware": (
        "sAMG", "cray_xe6", 2,
        dict(scheme="task_mode", block_k=4, eager_threshold=64, comm_plan="node-aware")),
}

_CLUSTERS = {"westmere": westmere_cluster, "cray_xe6": cray_xe6_cluster}


@functools.cache
def _matrix(name: str):
    return get_matrix(name, "tiny").build()


def snapshot(point: str) -> dict:
    """The statistics of one point, floats as ``float.hex()``."""
    matrix, cluster, nodes, kwargs = POINTS[point]
    res = simulate_spmvm(
        _matrix(matrix), _CLUSTERS[cluster](nodes), kappa=2.5, **kwargs
    )
    return {
        "total_seconds": res.total_seconds.hex(),
        "bytes_transferred": float(res.bytes_transferred).hex(),
        "resources": {
            repr(key): [
                s.busy_seconds.hex(),
                s.bytes_moved.hex(),
                s.max_concurrent_flows,
                s.flows_started,
            ]
            for key, s in sorted(res.resource_stats.items(), key=lambda kv: repr(kv[0]))
        },
    }


def probe_snapshot() -> dict:
    """The Sect. 3 probe: a rendezvous flow paused and resumed by hand."""
    r = run_progress_probe()
    return {
        field: getattr(r, field).hex()
        for field in ("no_async_progress", "async_progress", "task_mode_workaround")
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("point", sorted(POINTS))
def test_simulated_statistics_are_bit_identical(point):
    assert snapshot(point) == _golden()["points"][point]


def test_progress_probe_is_bit_identical():
    assert probe_snapshot() == _golden()["probe"]


def test_golden_covers_every_point():
    assert sorted(_golden()["points"]) == sorted(POINTS)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {"points": {p: snapshot(p) for p in sorted(POINTS)}, "probe": probe_snapshot()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
