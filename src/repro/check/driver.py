"""Running communication under the analyzer, end to end.

:func:`run_checked` is the instrumented twin of
:func:`repro.mpilite.world.run_spmd`: it wires a
:class:`~repro.check.recorder.CommRecorder` through the world, always
finalizes the recorder (a deadlocked or crashed world still yields its
findings — that is the whole point), and returns results together with
the :class:`~repro.check.findings.CheckReport`.

:func:`check_spmvm` is the full sweep the CLI and CI gate on: every
spMVM scheme under every comm plan on one matrix, each run
verified numerically against the serial kernel and dynamically analyzed,
plus a static lint of both plans.  A healthy tree reports zero findings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.check.findings import CheckReport, Finding
from repro.check.recorder import CommRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frame.trace import TraceRecorder

__all__ = ["run_checked", "check_spmvm", "sim_teardown_findings"]


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
    failure: BaseException | None = None
    try:
        results = run_spmd(
            nranks, fn, *args,
            timeout=timeout, recv_timeout=recv_timeout, recorder=rec, **kwargs,
        )
    except BaseException as exc:  # noqa: BLE001 - report, don't mask findings
        failure = exc
    report = rec.finalize(context=context)
    if failure is not None and not report.by_kind("deadlock"):
        # a failure the detectors did not already explain: surface it as
        # a finding so the report never silently swallows a crash
        report.findings.append(Finding(
            kind="deadlock" if isinstance(failure, TimeoutError) else "leaked-request",
            message=f"world failed without a detector diagnosis: {failure!r}",
            details={"exception": type(failure).__name__},
        ))
    return results, report


def check_spmvm(
    A: Any = None,
    *,
    matrix: str = "HMeP",
    scale: str = "tiny",
    nranks: int = 4,
    ranks_per_node: int = 2,
    schemes: tuple[str, ...] | None = None,
    plans: tuple[str, ...] = ("direct", "node-aware"),
    iterations: int = 2,
    trace: "TraceRecorder | None" = None,
    seed: int = 7,
) -> CheckReport:
    """Analyze every scheme under every comm plan, plus plan lint.

    Builds the *matrix*/*scale* preset when *A* is not given.  Each
    dynamic run also cross-checks the distributed result against the
    serial kernel (a wrong answer is reported as a finding, not an
    assertion, so the report stays the single source of truth).
    """
    from repro.check.lint import lint_comm_plan
    from repro.core.halo import cached_halo_plan
    from repro.core.spmvm import SCHEMES, distributed_spmv
    from repro.matrices import get_matrix
    from repro.sparse.spmv import spmv

    if A is None:
        A = get_matrix(matrix, scale).build_cached()
    schemes = tuple(schemes or SCHEMES)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.nrows)
    y_ref = spmv(A, x)

    report = CheckReport(context=f"nranks={nranks} ranks_per_node={ranks_per_node}")

    # static prong: lint both plans against the halo plan
    halo = cached_halo_plan(A, nranks, with_matrices=True)
    from repro.comm.plan import cached_comm_plan

    for kind in plans:
        rank_node = [r // ranks_per_node for r in range(nranks)]
        plan = cached_comm_plan(halo, rank_node, kind=kind)
        report.extend(lint_comm_plan(plan, halo))

    # dynamic prong: every scheme under every plan
    for kind in plans:
        for scheme in schemes:
            rec = CommRecorder(nranks, trace=trace)
            label = f"scheme={scheme} plan={kind}"
            try:
                y = distributed_spmv(
                    A, x, nranks,
                    scheme=scheme, iterations=iterations,
                    comm_plan=kind, ranks_per_node=ranks_per_node,
                    recorder=rec,
                )
            except BaseException as exc:  # noqa: BLE001 - fold into report
                report.merge(rec.finalize(context=label))
                report.findings.append(Finding(
                    kind="deadlock" if isinstance(exc, TimeoutError) else "leaked-request",
                    message=f"{label}: world failed: {exc!r}",
                    details={"exception": type(exc).__name__},
                ))
                continue
            run_report = rec.finalize(context=label)
            report.merge(run_report)
            if not np.allclose(y, y_ref, rtol=1e-10, atol=1e-12):
                report.findings.append(Finding(
                    kind="message-race",
                    message=(
                        f"{label}: distributed result deviates from the serial "
                        f"kernel (max |Δ| = {float(np.max(np.abs(y - y_ref))):.3e}) "
                        f"— nondeterministic matching suspected"
                    ),
                ))
    return report
