"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one modelling/implementation decision and reports
its effect, so that a reader can see *why* the reproduced curves look
the way they do:

1. progress semantics (the paper's central variable),
2. communication-thread placement (SMT vs dedicated core),
3. partition strategy (balanced nonzeros vs balanced rows),
4. RCM reordering of the Hamiltonian (paper: no advantage over HMeP),
5. eager-threshold sensitivity (protocol regime),
6. split-kernel penalty (Eq. 2) as observed by the simulator.
"""

import pytest

from benchmarks.conftest import write_report
from repro.core import build_halo_plan, simulate_from_plan, simulate_spmvm
from repro.experiments import KAPPA
from repro.machine import ranks_for_mode, westmere_cluster
from repro.sparse import partition_matrix, reverse_cuthill_mckee
from repro.util import Table

EAGER = 1024


@pytest.fixture(scope="module")
def cluster():
    return westmere_cluster(8)


def test_ablation_progress_semantics(hmep_matrix, cluster):
    rows = []
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        for async_progress in (False, True):
            r = simulate_spmvm(
                hmep_matrix, cluster, mode="per-ld", scheme=scheme,
                kappa=KAPPA["HMeP"], eager_threshold=EAGER,
                async_progress=async_progress,
            )
            rows.append([scheme, async_progress, r.gflops])
    t = Table(["scheme", "async progress", "GFlop/s"],
              title="ablation: MPI progress semantics (HMeP, 8 nodes, per-LD)",
              float_fmt=".2f")
    for row in rows:
        t.add_row(row)
    write_report("ablation_progress", t.render())
    by = {(s, a): g for s, a, g in rows}
    # async progress rescues naive overlap ...
    assert by[("naive_overlap", True)] > by[("naive_overlap", False)] * 1.15
    # ... but barely moves no_overlap (it never tried to overlap)
    assert by[("no_overlap", True)] < by[("no_overlap", False)] * 1.10
    # ... and task mode needs no library help
    assert by[("task_mode", True)] < by[("task_mode", False)] * 1.10


def test_ablation_comm_thread_placement(hmep_matrix, cluster):
    rows = []
    for placement in ("smt", "dedicated"):
        r = simulate_spmvm(
            hmep_matrix, cluster, mode="per-ld", scheme="task_mode",
            kappa=KAPPA["HMeP"], eager_threshold=EAGER, comm_thread=placement,
        )
        rows.append([placement, r.gflops])
    t = Table(["comm thread on", "GFlop/s"],
              title="ablation: communication-thread placement (paper: no difference)",
              float_fmt=".2f")
    for row in rows:
        t.add_row(row)
    write_report("ablation_comm_thread", t.render())
    # "it does not make a difference whether six worker threads are used
    # with one communication thread on a virtual core, or whether a
    # physical core is devoted to communication" (bus saturated at 4)
    assert rows[1][1] == pytest.approx(rows[0][1], rel=0.08)


def test_ablation_partition_strategy(hmep_matrix, cluster):
    rows = []
    nranks = ranks_for_mode(cluster, "per-ld")
    for strategy in ("nnz", "rows"):
        plan = build_halo_plan(
            hmep_matrix, partition_matrix(hmep_matrix, nranks, strategy=strategy),
            with_matrices=False,
        )
        r = simulate_from_plan(
            plan, cluster, mode="per-ld", scheme="task_mode",
            kappa=KAPPA["HMeP"], eager_threshold=EAGER,
        )
        rows.append([strategy, r.gflops])
    t = Table(["partition strategy", "GFlop/s"],
              title="ablation: balanced nonzeros (paper, footnote 2) vs balanced rows",
              float_fmt=".2f")
    for row in rows:
        t.add_row(row)
    write_report("ablation_partition", t.render())
    # nnz balancing never loses materially
    assert rows[0][1] >= rows[1][1] * 0.95


def test_ablation_rcm_reordering(hmep_matrix, cluster):
    """Paper Sect. 1.3.1: RCM 'showed no performance advantage over the
    HMeP variant neither on the node nor on the highly parallel level'."""
    perm = reverse_cuthill_mckee(hmep_matrix)
    rcm_matrix = hmep_matrix.permute(perm)
    rows = []
    for name, mat in (("HMeP", hmep_matrix), ("RCM(HMeP)", rcm_matrix)):
        r = simulate_spmvm(
            mat, cluster, mode="per-ld", scheme="task_mode",
            kappa=KAPPA["HMeP"], eager_threshold=EAGER,
        )
        plan = build_halo_plan(
            mat, partition_matrix(mat, ranks_for_mode(cluster, "per-ld")),
            with_matrices=False,
        )
        rows.append([name, r.gflops, plan.total_comm_bytes() / 1e6])
    t = Table(["ordering", "GFlop/s", "comm MB/MVM"],
              title="ablation: RCM reordering of the Hamiltonian (paper: no advantage)",
              float_fmt=".2f")
    for row in rows:
        t.add_row(row)
    write_report("ablation_rcm", t.render())
    # the paper's finding: RCM gives *no advantage* over the HMeP ordering
    # (in the reproduction it is clearly worse — RCM nearly doubles the
    # interprocess communication volume of this Hamiltonian)
    assert rows[1][1] <= rows[0][1] * 1.05


def test_ablation_eager_threshold(hmep_matrix, cluster):
    rows = []
    for eager in (0, 1024, 1 << 20):
        r = simulate_spmvm(
            hmep_matrix, cluster, mode="per-ld", scheme="naive_overlap",
            kappa=KAPPA["HMeP"], eager_threshold=eager,
        )
        rows.append([eager, r.gflops])
    t = Table(["eager threshold [B]", "GFlop/s"],
              title="ablation: eager/rendezvous cutoff (naive overlap, HMeP)",
              float_fmt=".2f")
    for row in rows:
        t.add_row(row)
    write_report("ablation_eager", t.render())
    # a huge eager threshold makes every message progress-free, so the
    # naive overlap silently works — the protocol regime matters
    assert rows[2][1] > rows[0][1]


def test_ablation_split_kernel_penalty(hmep_matrix):
    """Eq. 2 observed: single node, no communication — naive overlap's only
    cost is the split kernel writing the result twice."""
    cluster1 = westmere_cluster(1)
    novl = simulate_spmvm(hmep_matrix, cluster1, mode="per-node", scheme="no_overlap",
                          kappa=KAPPA["HMeP"], eager_threshold=EAGER)
    naive = simulate_spmvm(hmep_matrix, cluster1, mode="per-node", scheme="naive_overlap",
                           kappa=KAPPA["HMeP"], eager_threshold=EAGER)
    from repro.model import code_balance, code_balance_split

    expected = 1.0 - code_balance(hmep_matrix.nnzr, KAPPA["HMeP"]) / code_balance_split(
        hmep_matrix.nnzr, KAPPA["HMeP"]
    )
    observed = 1.0 - naive.gflops / novl.gflops
    t = Table(["quantity", "value"], title="ablation: split-kernel penalty (Eq. 2)",
              float_fmt=".4f")
    t.add_row(["predicted penalty (Eq. 2 / Eq. 1)", expected])
    t.add_row(["observed penalty (simulator)", observed])
    write_report("ablation_split_penalty", t.render())
    assert observed == pytest.approx(expected, abs=0.04)
