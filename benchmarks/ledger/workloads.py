"""The ledger's workloads, metric names and fixed parameters.

Everything a later issue cites by name lives here: the four workloads,
the ten end-to-end metrics and the constants every phase shares.  The
same names appear in ``BENCHMARK.json`` (``test_ledger.py`` checks that
the two stay in step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Ranks of every distributed phase.  The host has two cores; the load
#: generator is one thread, so the program's own threads are the rest.
NRANKS = 2
#: ``SolverService(max_batch=...)`` of every serving phase.
MAX_BATCH = 8
#: Tickets one client submits back to back in a burst.
BURST = 16
#: Distinct right-hand sides per run (requests cycle through them).
POOL = 4
#: Simulated strong-scaling sweep: nodes x schemes, per-LD placement
#: (2 ranks per node, so up to 8 simulated ranks).  No point costs more
#: than 65 ms: a longer one is never simulated undisturbed on a busy
#: host, and its time then follows the host's state, not the code.
SIM_NODES = (1, 2, 4)
SIM_KAPPA = 2.5
#: Node count of the single simulated point the per-layer metrics pin
#: (16 ranks; 0.2 s on HMeP-small, so it is not in the timed sweep).
SIM_POINT_NODES = 8
#: Fig. 4 a/b/c, and the short names the metrics use for them.
SCHEMES = ("no_overlap", "naive_overlap", "task_mode")
SCHEME_LABEL = {"no_overlap": "vector", "naive_overlap": "naive", "task_mode": "task"}

RTOL = ATOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One named input of the benchmark."""

    name: str
    matrix: str
    scale: str
    k: int  # right-hand sides per sweep / call / request
    solver: str  # "lanczos" (lowest eigenvalue) or "cg"
    tol: float  # the stated tolerance of ``solve_s``
    max_iter: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hmep-small", "HMeP", "small", 1, "lanczos", 1e-8, 200,
            "overhead-bound and halo-heavy: dispatch, thread spawn, rendezvous and "
            "queue hand-off outweigh the 1 ms kernel",
        ),
        Workload(
            "hmep-medium", "HMeP", "medium", 1, "lanczos", 1e-4, 200,
            "the paper's Fig. 5 case: bandwidth-bound kernel plus the largest halo "
            "exchange (280 kB messages); fixed overheads are a few percent",
        ),
        Workload(
            "samg-medium", "sAMG", "medium", 1, "cg", 1e-4, 5000,
            "the paper's Fig. 6 case: bandwidth-bound with almost no halo, so the "
            "kernel and the solver's collectives do everything",
        ),
        Workload(
            "samg-small-block", "sAMG", "small", 8, "cg", 1e-8, 5000,
            "k = 8 blocks through the same layers: spmm, k-column halo messages, "
            "multiply_block, 2-D submit, batches full on arrival",
        ),
    )
}

#: The workloads ``BENCHMARK.json`` names, i.e. the ones the PR driver
#: runs and gates on.  The driver's time limit covers 4 + 22 runs per
#: workload, and on its noisy host only long runs repeat (README,
#: "Estimator"), so two workloads get 55 s each.  They are the two whose
#: working sets stay in cache: the neighbours' memory traffic slows the
#: bandwidth-bound medium workloads by a factor that no estimator
#: removes.  The other two run the same way from the command line,
#: ungated.
GATED = ("hmep-small", "samg-small-block")

#: name, unit, better — in the order they are printed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sweep_task_ms", "ms", "lower"),
    ("sweep_vector_ms", "ms", "lower"),
    ("sweep_naive_ms", "ms", "lower"),
    ("spmv_call_ms", "ms", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("burst_rps", "req/s", "higher"),
    ("solve_s", "s", "lower"),
    ("sim_sweep_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Inputs:
    """Seeded inputs of one run: the matrix is fixed, these are not."""

    xs: list[np.ndarray]  # POOL right-hand sides, (n,) or (n, k)
    solver_vector: np.ndarray  # Lanczos start vector / CG right-hand side


def make_inputs(nrows: int, k: int, seed: int) -> Inputs:
    """The run's right-hand sides and solver vector, from *seed* alone.

    The solver vector is a fixed reference vector plus a 10 % seeded
    perturbation: a fully random one moves the Krylov iteration count by
    +-4 % between seeds (62-67 Lanczos steps on hmep-small), and under
    full reorthogonalisation the solve time by twice that, which would
    read as noise in ``solve_s``.
    """
    rng = np.random.default_rng(seed)
    shape = (nrows,) if k == 1 else (nrows, k)
    xs = [rng.standard_normal(shape) for _ in range(POOL)]
    reference = np.random.default_rng(1101_0091).standard_normal(nrows)
    return Inputs(xs=xs, solver_vector=reference + 0.1 * rng.standard_normal(nrows))
