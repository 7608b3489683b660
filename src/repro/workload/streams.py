"""Job arrival streams: synthetic generators and the ``repro-trace/1`` format.

A *workload* is a time-ordered stream of solver jobs submitted by many
independent users.  This module produces such streams two ways:

* :func:`synthetic_stream` — seeded statistical generators (Poisson or
  heavy-tailed interarrival times, configurable job-size and solver-mix
  distributions), the standard way to load the simulated cluster;
* :func:`load_trace` / :func:`dump_trace` — a documented JSON trace
  format (``repro-trace/1``) so measured or hand-crafted workloads can
  be replayed bit-for-bit.

Every generator is a pure function of its seed: the same arguments
produce the identical job list, which is what makes scheduler
comparisons (:mod:`repro.workload.engine`) meaningful.

``repro-trace/1`` layout::

    {
      "schema": "repro-trace/1",
      "jobs": [
        {"job_id": 0, "name": "cg-0", "solver": "cg", "submit": 0.0,
         "n_nodes": 2, "nrows": 1024, "nnzr": 8.0, "iterations": 25,
         "walltime": 0.004, "block_k": 1, "seed": 17},
        ...
      ]
    }

``submit`` and ``walltime`` are simulated seconds; ``walltime`` is the
*user-supplied runtime estimate* (the quantity EASY backfilling reserves
against), not the measured runtime.  Jobs must be sorted by ``submit``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.util import check_positive_float, check_positive_int

__all__ = [
    "TRACE_SCHEMA",
    "SOLVERS",
    "DOTS_PER_ITERATION",
    "ARRIVAL_KINDS",
    "Job",
    "estimate_walltime",
    "synthetic_stream",
    "reference_trace",
    "jobs_to_dict",
    "jobs_from_dict",
    "dump_trace",
    "load_trace",
]

#: Version tag of the JSON trace layout.  Bump only on breaking changes.
TRACE_SCHEMA = "repro-trace/1"

#: Solver kinds a job may request.  ``spmvm`` is a bare sweep stream;
#: ``cg`` and ``lanczos`` add the synchronising dot-product allreduces
#: of one iteration of the respective Krylov method.
SOLVERS = ("spmvm", "cg", "lanczos")

#: Global allreduces (dot products / orthogonalisation scalars) per
#: solver iteration: CG needs two (alpha and beta), Lanczos two as well
#: (one block dot against the basis, one norm), a plain spMVM none.
#: These are what the real solvers post — ``counters["reductions"] ==
#: DOTS_PER_ITERATION[solver] * iterations + 2`` is a test for both.
DOTS_PER_ITERATION = {"spmvm": 0, "cg": 2, "lanczos": 2}

#: Interarrival-time families of :func:`synthetic_stream`.
ARRIVAL_KINDS = ("poisson", "heavy")

#: Per-iteration seconds model used for the default walltime estimate:
#: memory traffic of one sweep at a nominal node bandwidth, plus a fixed
#: per-iteration synchronisation overhead.  Deliberately crude — it is a
#: *user estimate* for the scheduler, not a prediction.
_ESTIMATE_BANDWIDTH = 20.0e9
_ESTIMATE_OVERHEAD = 8.0e-6


@dataclass(frozen=True)
class Job:
    """One schedulable solver job.

    ``submit`` is the arrival instant (simulated seconds); ``walltime``
    the user's runtime estimate the scheduler may reserve against.
    ``n_nodes`` nodes are allocated exclusively for the job's lifetime.
    ``nrows``/``nnzr``/``seed`` parameterise the job's (random-pattern)
    system matrix, ``iterations`` the solver iteration count and
    ``block_k`` the right-hand sides per sweep (coalesced requests).
    """

    job_id: int
    name: str
    solver: str
    submit: float
    n_nodes: int
    nrows: int
    nnzr: float
    iterations: int
    walltime: float
    block_k: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if self.submit < 0:
            raise ValueError(f"submit must be >= 0, got {self.submit}")
        check_positive_int(self.n_nodes, "n_nodes")
        check_positive_int(self.nrows, "nrows")
        check_positive_float(self.nnzr, "nnzr")
        check_positive_int(self.iterations, "iterations")
        check_positive_float(self.walltime, "walltime")
        check_positive_int(self.block_k, "block_k")

    @property
    def dots_per_iteration(self) -> int:
        """Synchronising allreduces per solver iteration."""
        return DOTS_PER_ITERATION[self.solver]


def estimate_walltime(
    solver: str,
    nrows: int,
    nnzr: float,
    iterations: int,
    n_nodes: int,
    *,
    overestimate: float = 1.0,
) -> float:
    """A user-style runtime estimate for one job (seconds).

    Per iteration: the sweep's memory traffic (matrix stream + vectors,
    the Eq. 1 terms) split over the job's nodes at a nominal bandwidth,
    plus a fixed synchronisation overhead (and one more per dot
    product).  ``overestimate`` scales the result the way real users pad
    their batch-script walltimes — EASY backfilling only ever sees this
    estimate, never the true runtime.
    """
    nnz = nrows * nnzr
    traffic = 12.0 * nnz + 24.0 * nrows
    per_iter = traffic / n_nodes / _ESTIMATE_BANDWIDTH + _ESTIMATE_OVERHEAD * (
        1 + DOTS_PER_ITERATION[solver]
    )
    return overestimate * iterations * per_iter


def _interarrivals(
    rng: np.random.Generator, n: int, rate: float, kind: str, alpha: float
) -> np.ndarray:
    """*n* nonnegative interarrival gaps with mean ``1/rate``."""
    if kind == "poisson":
        return rng.exponential(1.0 / rate, size=n)
    # classical Pareto with mean 1/rate: xm * (1 + Lomax(alpha)) has
    # mean xm * alpha / (alpha - 1); solve for xm
    xm = (1.0 / rate) * (alpha - 1.0) / alpha
    return xm * (1.0 + rng.pareto(alpha, size=n))


def synthetic_stream(
    n_jobs: int,
    *,
    seed: int = 0,
    rate: float = 200.0,
    arrival: str = "poisson",
    heavy_tail_alpha: float = 1.8,
    solver_mix: Mapping[str, float] | None = None,
    node_choices: Sequence[int] = (1, 1, 2, 2, 4),
    nrows_range: tuple[int, int] = (384, 1536),
    nnzr_range: tuple[float, float] = (6.0, 12.0),
    iterations_range: tuple[int, int] = (8, 32),
    overestimate_range: tuple[float, float] = (1.2, 3.0),
) -> list[Job]:
    """A seeded synthetic job stream (the many-users workload).

    ``rate`` is the mean arrival rate in jobs per simulated second;
    ``arrival`` picks the interarrival family (``"poisson"`` for a
    memoryless stream, ``"heavy"`` for Pareto-tailed bursts — the shape
    real cluster logs show).  ``solver_mix`` maps solver names to
    relative weights (default: half spMVM streams, half CG/Lanczos).
    ``node_choices`` is sampled uniformly (repeat an entry to weight
    it); the remaining ranges are sampled uniformly per job.  The same
    arguments always produce the identical stream.
    """
    check_positive_int(n_jobs, "n_jobs")
    check_positive_float(rate, "rate")
    if arrival not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind {arrival!r}; expected one of {ARRIVAL_KINDS}")
    if heavy_tail_alpha <= 1.0:
        raise ValueError(
            f"heavy_tail_alpha must be > 1 (finite mean), got {heavy_tail_alpha}"
        )
    mix = dict(solver_mix) if solver_mix else {"spmvm": 2.0, "cg": 1.0, "lanczos": 1.0}
    for name, weight in mix.items():
        if name not in SOLVERS:
            raise ValueError(f"unknown solver {name!r} in solver_mix")
        if weight < 0:
            raise ValueError(f"solver_mix weight for {name!r} must be >= 0, got {weight}")
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("solver_mix weights sum to zero")
    names = sorted(mix)
    probs = np.array([mix[n] / total for n in names])

    rng = np.random.default_rng(seed)
    gaps = _interarrivals(rng, n_jobs, rate, arrival, heavy_tail_alpha)
    submits = np.cumsum(gaps)
    jobs: list[Job] = []
    for i in range(n_jobs):
        solver = names[int(rng.choice(len(names), p=probs))]
        n_nodes = int(rng.choice(np.asarray(node_choices)))
        nrows = int(rng.integers(nrows_range[0], nrows_range[1] + 1))
        nnzr = float(rng.uniform(*nnzr_range))
        iterations = int(rng.integers(iterations_range[0], iterations_range[1] + 1))
        over = float(rng.uniform(*overestimate_range))
        jobs.append(
            Job(
                job_id=i,
                name=f"{solver}-{i}",
                solver=solver,
                submit=float(submits[i]),
                n_nodes=n_nodes,
                nrows=nrows,
                nnzr=nnzr,
                iterations=iterations,
                walltime=estimate_walltime(
                    solver, nrows, nnzr, iterations, n_nodes, overestimate=over
                ),
                seed=seed * 100_003 + i,
            )
        )
    return jobs


def reference_trace() -> list[Job]:
    """The documented reference workload the CI guards run against.

    Hand-crafted (not sampled) so its scheduling properties are stable:

    * a classic EASY-backfilling scenario — ``wide-1`` needs the whole
      16-node machine but must wait for ``med-0``; a tail of short
      narrow jobs behind it can either idle (FCFS) or backfill into the
      14 free nodes (EASY), which is why EASY's utilisation is strictly
      higher on this trace;
    * a band of communication-heavy 2- and 4-node CG jobs whose halo
      exchanges are large enough that torus link contention is visible —
      scattering their ranks (random placement) multiplies link-pool
      demand by the hop count, which is why node-aware placement wins
      on p99 latency.

    All walltime estimates are deliberate ~2x overestimates, as real
    batch scripts are.
    """

    def mk(i, name, solver, submit, n_nodes, nrows, nnzr, iterations, over=2.0):
        return Job(
            job_id=i,
            name=name,
            solver=solver,
            submit=submit,
            n_nodes=n_nodes,
            nrows=nrows,
            nnzr=nnzr,
            iterations=iterations,
            walltime=estimate_walltime(
                solver, nrows, nnzr, iterations, n_nodes, overestimate=over
            ),
            seed=1000 + i,
        )

    jobs = [
        # the machine is busy: a medium job holding 4 nodes.  Its
        # estimate is deliberately tight (1.1x, not 2x): the shadow time
        # EASY reserves for wide-1 then only admits genuinely short
        # backfills, not the padded-estimate comm band
        mk(0, "med-0", "cg", 0.0, 4, 1024, 8.0, 40, over=1.1),
        # a near-whole-machine job right behind it: with only 12 nodes
        # free it head-blocks the FCFS queue until med-0 drains, and
        # being 14 wide (not 16) the machine never has to empty fully
        mk(1, "wide-1", "spmvm", 1.0e-4, 14, 2048, 8.0, 20),
    ]
    # short narrow jobs that EASY can backfill while wide-1 waits
    for i in range(2, 10):
        jobs.append(mk(i, f"short-{i}", "spmvm", 1.2e-4 + (i - 2) * 1e-5, 1, 512, 6.0, 12))
    # communication-heavy multi-node CG/Lanczos band (halo ~ whole vector);
    # arrivals are denser than the service rate, so these queue and co-run
    for i in range(10, 22):
        solver = "cg" if i % 2 else "lanczos"
        width = 4 if i % 3 == 0 else 2
        jobs.append(mk(i, f"comm-{i}", solver, 2.5e-4 + (i - 10) * 2.5e-5, width, 1536, 10.0, 16))
    # a trailing mixed batch; all arrivals are over well before the queue
    # drains, so the makespan (and hence utilisation) is decided by how
    # well the scheduler packs, not by the arrival horizon
    for i in range(22, 30):
        jobs.append(mk(i, f"tail-{i}", "spmvm", 5.0e-4 + (i - 22) * 2.0e-5, 2, 768, 7.0, 10))
    return jobs


# ----------------------------------------------------------------------
# repro-trace/1 (de)serialisation
# ----------------------------------------------------------------------
def jobs_to_dict(jobs: Iterable[Job]) -> dict:
    """The ``repro-trace/1`` document for *jobs* (submit-sorted)."""
    ordered = sorted(jobs, key=lambda j: (j.submit, j.job_id))
    return {"schema": TRACE_SCHEMA, "jobs": [asdict(j) for j in ordered]}


def jobs_from_dict(doc: Mapping) -> list[Job]:
    """Parse a ``repro-trace/1`` document; validates schema and fields."""
    schema = doc.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {schema!r}; expected {TRACE_SCHEMA!r}")
    raw = doc.get("jobs")
    if not isinstance(raw, list):
        raise ValueError("trace document has no 'jobs' list")
    jobs = []
    for i, entry in enumerate(raw):
        try:
            jobs.append(Job(**entry))
        except TypeError as exc:
            raise ValueError(f"trace job {i} has missing/unknown fields: {exc}") from exc
    for a, b in zip(jobs, jobs[1:]):
        if b.submit < a.submit:
            raise ValueError(
                f"trace jobs are not submit-sorted (job {a.job_id} at {a.submit} "
                f"before job {b.job_id} at {b.submit})"
            )
    if len({j.job_id for j in jobs}) != len(jobs):
        raise ValueError("trace contains duplicate job_ids")
    return jobs


def dump_trace(jobs: Iterable[Job], path: str | Path) -> Path:
    """Write *jobs* as a ``repro-trace/1`` JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(jobs_to_dict(jobs), indent=1) + "\n")
    return path


def load_trace(path: str | Path) -> list[Job]:
    """Load a ``repro-trace/1`` JSON file written by :func:`dump_trace`."""
    with Path(path).open() as fh:
        return jobs_from_dict(json.load(fh))
