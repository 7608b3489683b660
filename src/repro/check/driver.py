"""Running communication under the analyzer, end to end.

:func:`run_checked` is the one way to run anything observed: it hands a
fresh :class:`~repro.check.checker.Checker` to the caller's run, always
finalizes it (a deadlocked or crashed world still yields its findings —
that is the whole point), and folds a failed run into the
:class:`~repro.check.findings.CheckReport`.  The seeded-bug fixtures and
:func:`check_spmvm` both go through it.

:func:`check_spmvm` is the one gate the CLI and CI run: the static pass
(plan lint, sweep-program lint, AST lint), then every spMVM scheme under
every comm plan as a vector and as a block, each run observed by a
fresh checker and verified against the serial kernel, then one
concurrent solver-service session under a checker of its own.  A healthy
tree reports zero findings.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.check.astlint import run_astlint
from repro.check.checker import Checker
from repro.check.findings import CheckReport, Finding
from repro.check.lint import lint_comm_plan
from repro.core.spmvm import distributed_spmm, distributed_spmv
from repro.program.build import PROGRAM_SCHEMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparse.csr import CSRMatrix

__all__ = ["run_checked", "check_spmvm"]

#: What the gate sweeps, beyond the three schemes: both comm plans, two
#: sweeps per run (the second one finds the comm thread parked and the
#: ring buffers used), a vector and a block of this many columns, and a
#: service session of this many requests from three submitters.
PLANS = ("direct", "node-aware")
ITERATIONS = 2
BLOCK_K = 4
SERVICE_REQUESTS = 12
SEED = 7


def run_checked(
    nranks: int, run: Callable[[Checker], Any], *, context: str = ""
) -> tuple[Any, CheckReport]:
    """Run ``run(checker)`` under a fresh :class:`Checker` of *nranks* ranks.

    *run* attaches the checker where it builds its world — the
    ``observer=`` of ``run_spmd``, the one-call drivers or
    ``SolverService`` — and returns what the caller wants back.
    Returns ``(result, report)``.  When *run* raises an ``Exception``,
    ``result`` is ``None`` and, unless a detected deadlock explains it,
    the failure becomes one ``world-failure`` finding naming *context*:
    reported, never raised, and never mistaken for a detector firing.
    Anything else (Ctrl-C) propagates.
    """
    checker = Checker(nranks)
    result = failure = None
    try:
        result = run(checker)
    except Exception as exc:  # noqa: BLE001 - report, don't mask findings
        failure = exc
    report = checker.finalize(context=context)
    if failure is not None and not report.by_kind("deadlock"):
        report.findings.append(Finding(
            kind="world-failure",
            message=f"{context or 'run'}: world failed without a detector diagnosis: {failure!r}",
            details={"exception": type(failure).__name__},
        ))
    return result, report


def _service_session(A: "CSRMatrix", nranks: int, rng: np.random.Generator):
    """The sweep's last row: three submitters on one task-mode service.

    Returns ``(run, ref)``: *run* takes the checker and returns the
    stacked responses of all requests, *ref* the serial products.
    """
    from repro.serve import SolverService, build_model
    from repro.sparse import spmv

    model = build_model(A, nranks, scheme="task_mode")
    # pregenerate the right-hand sides: np.random.Generator is not thread-safe
    payloads = [
        [rng.standard_normal(A.nrows) for _ in range(SERVICE_REQUESTS // 3)]
        for _ in range(3)
    ]

    def run(checker: Checker) -> np.ndarray:
        answers: list[list[np.ndarray]] = [[] for _ in payloads]
        errors: list[Exception] = []

        def submitter(svc: SolverService, rhs: list[np.ndarray], out: list) -> None:
            try:
                out.extend(svc.solve(x) for x in rhs)
            except Exception as exc:  # noqa: BLE001 - re-raised on the caller below
                errors.append(exc)

        with SolverService(model, observer=checker, name="check") as svc:
            threads = [
                threading.Thread(target=submitter, args=(svc, rhs, out))
                for rhs, out in zip(payloads, answers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        return np.stack([y for out in answers for y in out])

    return run, np.stack([spmv(A, x) for rhs in payloads for x in rhs])


def check_spmvm(
    A: "CSRMatrix | None" = None,
    *,
    matrix: str = "HMeP",
    scale: str = "tiny",
    nranks: int = 4,
    ranks_per_node: int = 2,
) -> CheckReport:
    """Is the tree clean?  Static pass, observed sweep, service session.

    Builds the *matrix*/*scale* preset when *A* is not given.  The
    report's ``context`` says what was covered.  Every run that finishes
    is verified against the serial kernel: a wrong answer is a finding
    too, not an assertion, so the report stays the single source of
    truth.
    """
    from repro.comm.plan import cached_comm_plan
    from repro.core.halo import cached_halo_plan
    from repro.matrices import get_matrix
    from repro.program import all_sweep_programs, lint_sweep_programs
    from repro.sparse import spmm, spmv

    if A is None:
        A = get_matrix(matrix, scale).build_cached()
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(A.nrows)
    X = rng.standard_normal((A.nrows, BLOCK_K))
    operands = (
        ("spmv k=1", distributed_spmv, x, spmv(A, x)),
        (f"spmm k={BLOCK_K}", distributed_spmm, X, spmm(A, X)),
    )
    programs = all_sweep_programs()
    report = CheckReport(context=(
        f"nranks={nranks} ranks_per_node={ranks_per_node}: plan lint ({len(PLANS)} plans), "
        f"program lint ({len(programs)} programs), AST lint, "
        f"{len(PLANS) * len(PROGRAM_SCHEMES) * len(operands)} dynamic runs "
        f"+ 1 service session, each under a fresh Checker"
    ))

    # static pass: both plans against the halo plan, every program the
    # builders can emit, the repo invariants
    halo = cached_halo_plan(A, nranks, with_matrices=True)
    rank_node = [r // ranks_per_node for r in range(nranks)]
    for kind in PLANS:
        report.extend(lint_comm_plan(cached_comm_plan(halo, rank_node, kind=kind), halo))
    report.extend(lint_sweep_programs(programs))
    report.extend(run_astlint())

    def observe(label: str, run: Callable[[Checker], np.ndarray], ref: np.ndarray) -> None:
        y, observed = run_checked(nranks, run, context=label)
        report.merge(observed)
        if y is not None and not np.allclose(y, ref, rtol=1e-10, atol=1e-12):
            report.findings.append(Finding(
                kind="wrong-result",
                message=(
                    f"{label}: distributed result deviates from the serial kernel "
                    f"(max |Δ| = {float(np.max(np.abs(y - ref))):.3e})"
                ),
            ))

    # dynamic sweep: plan x scheme x {vector, block}, then the service
    for kind in PLANS:
        for scheme in PROGRAM_SCHEMES:
            for width, multiply, operand, ref in operands:
                run = partial(
                    multiply, A, operand, nranks,
                    scheme=scheme, iterations=ITERATIONS,
                    comm_plan=kind, ranks_per_node=ranks_per_node,
                )
                label = f"scheme={scheme} plan={kind} {width}"
                observe(label, lambda checker: run(observer=checker), ref)
    observe("service session (3 concurrent submitters)", *_service_session(A, nranks, rng))
    return report
