"""Running communication under the analyzer, end to end.

:func:`run_checked` is the instrumented twin of
:func:`repro.mpilite.world.run_spmd`: it wires a
:class:`~repro.check.recorder.CommRecorder` through the world, always
finalizes the recorder (a deadlocked or crashed world still yields its
findings — that is the whole point), and returns results together with
the :class:`~repro.check.findings.CheckReport`.

:func:`check_spmvm` is the one gate the CLI and CI run: the static pass
(plan lint, sweep-program lint, AST lint), then every spMVM scheme under
every comm plan as a vector and as a block, each run observed by a
:class:`~repro.check.recorder.CommRecorder` on the world *and* a
:class:`~repro.check.threads.ThreadSanitizer` on every engine and
verified against the serial kernel, then one concurrent solver-service
session under the same two observers.  A healthy tree reports zero
findings.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.check.astlint import run_astlint
from repro.check.findings import CheckReport, Finding
from repro.check.lint import lint_comm_plan
from repro.check.recorder import CommRecorder
from repro.check.threads import ThreadSanitizer
from repro.core.spmvm import SCHEMES, distributed_spmm, distributed_spmv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frame.trace import TraceRecorder
    from repro.sparse.csr import CSRMatrix

__all__ = ["run_checked", "check_spmvm", "sim_teardown_findings"]

#: What the gate sweeps, beyond the three schemes: both comm plans, two
#: sweeps per run (the second one finds the comm thread parked and the
#: ring buffers used), a vector and a block of this many columns, and a
#: service session of this many requests from three submitters.
PLANS = ("direct", "node-aware")
ITERATIONS = 2
BLOCK_K = 4
SERVICE_REQUESTS = 12
SEED = 7


def sim_teardown_findings(mpi: Any) -> list[Finding]:
    """Leaked-request findings for a finished :class:`repro.smpi.SimMPI`.

    The simulator's twin of the mpilite teardown check: every send still
    waiting for a receiver (and vice versa) when the simulation ends is
    a plan/replay bug, reported with full src/dst/tag provenance.
    """
    findings: list[Finding] = []
    for kind, src, dst, tag, nbytes in mpi.unmatched_requests():
        waiting = "a receiver" if kind == "send" else "a sender"
        poster = src if kind == "send" else dst
        findings.append(Finding(
            kind="leaked-request",
            message=(
                f"simulated {kind} from rank {src} to rank {dst} with tag {tag} "
                f"({nbytes} bytes) never found {waiting} before the simulation ended"
            ),
            ranks=(poster,),
            details={"op": f"sim-{kind}", "src": src, "dst": dst, "tag": tag},
        ))
    return findings


def _failure_finding(where: str, failure: Exception) -> Finding:
    """A failed world as a finding, so no report silently swallows a crash."""
    return Finding(
        kind="deadlock" if isinstance(failure, TimeoutError) else "leaked-request",
        message=f"{where}: world failed without a detector diagnosis: {failure!r}",
        details={"exception": type(failure).__name__},
    )


def run_checked(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    recv_timeout: float | None = None,
    trace: "TraceRecorder | None" = None,
    context: str = "",
    **kwargs: Any,
) -> tuple[list[Any] | None, CheckReport]:
    """Run an SPMD function under the dynamic analyzer.

    Returns ``(results, report)``.  When the world fails (deadlock,
    timeout, rank exception) ``results`` is ``None`` and the failure is
    folded into the report rather than raised — the analyzer's diagnosis
    is strictly more useful than the raw traceback, which stays
    available in the report's details.
    """
    from repro.mpilite.world import run_spmd

    rec = CommRecorder(nranks, trace=trace)
    results: list[Any] | None = None
    failure: Exception | None = None
    try:
        results = run_spmd(
            nranks, fn, *args,
            timeout=timeout, recv_timeout=recv_timeout, recorder=rec, **kwargs,
        )
    except Exception as exc:  # noqa: BLE001 - report, don't mask findings
        failure = exc
    report = rec.finalize(context=context)
    if failure is not None and not report.by_kind("deadlock"):
        report.findings.append(_failure_finding(context or "run", failure))
    return results, report


def _observed_run(
    label: str, nranks: int, run: Callable[..., np.ndarray], ref: np.ndarray
) -> CheckReport:
    """One run under both observers, verified against the serial kernel.

    ``run(recorder=, sanitizer=)`` gets a fresh observer of each kind
    (both are single-run objects).  A world that fails becomes one
    finding naming *label*, a wrong answer another — findings, not
    assertions, so the report stays the single source of truth.
    """
    rec, san = CommRecorder(nranks), ThreadSanitizer()
    failure: Exception | None = None
    try:
        y = run(recorder=rec, sanitizer=san)
    except Exception as exc:  # noqa: BLE001 - folded into the report below
        failure = exc
    report = rec.finalize(context=label).merge(san.finalize(context=label))
    if failure is not None:
        report.findings.append(_failure_finding(label, failure))
    elif not np.allclose(y, ref, rtol=1e-10, atol=1e-12):
        report.findings.append(Finding(
            kind="message-race",
            message=(
                f"{label}: distributed result deviates from the serial kernel "
                f"(max |Δ| = {float(np.max(np.abs(y - ref))):.3e}) — nondeterministic "
                f"matching or an unreported unsynchronised access suspected"
            ),
        ))
    return report


def _service_session(A: "CSRMatrix", nranks: int, rng: np.random.Generator):
    """The sweep's last row: three submitters on one task-mode service.

    Returns ``(run, ref)`` in the shape :func:`_observed_run` takes: the
    stacked responses of all requests against the serial products.
    """
    from repro.serve import SolverService, build_model
    from repro.sparse import spmv

    model = build_model(A, nranks, scheme="task_mode")
    # pregenerate the right-hand sides: np.random.Generator is not thread-safe
    payloads = [
        [rng.standard_normal(A.nrows) for _ in range(SERVICE_REQUESTS // 3)]
        for _ in range(3)
    ]

    def run(*, recorder: CommRecorder, sanitizer: ThreadSanitizer) -> np.ndarray:
        answers: list[list[np.ndarray]] = [[] for _ in payloads]
        errors: list[Exception] = []

        def submitter(svc: SolverService, rhs: list[np.ndarray], out: list) -> None:
            try:
                out.extend(svc.solve(x) for x in rhs)
            except Exception as exc:  # noqa: BLE001 - re-raised on the caller below
                errors.append(exc)

        with SolverService(
            model, recorder=recorder, sanitizer=sanitizer, name="check"
        ) as svc:
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
    report's ``context`` says what was covered.
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
        f"{len(PLANS) * len(SCHEMES) * len(operands)} dynamic runs "
        f"+ 1 service session under CommRecorder + ThreadSanitizer"
    ))

    # static pass: both plans against the halo plan, every program the
    # builders can emit, the repo invariants
    halo = cached_halo_plan(A, nranks, with_matrices=True)
    rank_node = [r // ranks_per_node for r in range(nranks)]
    for kind in PLANS:
        report.extend(lint_comm_plan(cached_comm_plan(halo, rank_node, kind=kind), halo))
    report.extend(lint_sweep_programs(programs))
    report.extend(run_astlint())

    # dynamic sweep: plan x scheme x {vector, block}, then the service
    for kind in PLANS:
        for scheme in SCHEMES:
            for width, multiply, operand, ref in operands:
                run = partial(
                    multiply, A, operand, nranks,
                    scheme=scheme, iterations=ITERATIONS,
                    comm_plan=kind, ranks_per_node=ranks_per_node,
                )
                label = f"scheme={scheme} plan={kind} {width}"
                report.merge(_observed_run(label, nranks, run, ref))
    session, ref = _service_session(A, nranks, rng)
    report.merge(_observed_run("service session (3 concurrent submitters)", nranks, session, ref))
    return report
