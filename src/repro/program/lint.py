"""Program-level lint: proving a sweep program safe before any backend runs it.

:func:`lint_sweep_program` checks the structural invariants both
interpreters rely on and reports violations as ``program-lint``
:class:`~repro.check.findings.Finding` records.  Because every scheme
dispatches through :mod:`repro.program`, the correctness layer verifies
the IR once — instead of chasing three hand-rolled implementations of
the same phase ordering.

The ordering invariants are proved on a *happens-before* model of the
op stream: only ``OMP_BARRIER`` ops order the main path against the
comm thread.  A ``COMM_THREAD`` spawn does not — Fig. 4c's
communication thread is a member of the thread team, not a freshly
created thread, so nothing the compute threads wrote before the spawn
is published to it until a barrier says so.

Invariants
----------
* **request lifecycle** — receives, pack, sends and the ``WAITALL``
  appear exactly once; receives are posted before the sends and
  ``WAITALL`` after both (no leaked requests by construction);
* **buffer publication** — ``PACK`` happens-before ``POST_SENDS``: when
  the sends run on the communication thread, an ``OMP_BARRIER``
  separates the pack from them;
* **comm-thread region balance** — at most one region open at a time,
  and every region joined by a main-path ``OMP_BARRIER`` before the
  program ends;
* **data readiness** — ``REMOTE_SPMVM``/``FULL_SPMVM`` run only after
  the ``WAITALL`` (on the main path, or behind a barrier when it ran on
  the comm thread); the kernel writes the result exactly once (one
  ``FULL_SPMVM`` or one ``LOCAL_SPMVM`` + ``REMOTE_SPMVM`` pair, local
  first).

What a ``COMM_THREAD`` body may hold (MPI ops only) is not a lint rule:
:class:`~repro.program.ir.SweepOp` refuses anything else when it is
constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.program.ir import SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.findings import Finding

__all__ = ["lint_sweep_program", "lint_sweep_programs"]


class _Item:
    """One issued op with its happens-before coordinates.

    ``step`` is a global logical time that only barriers advance; two
    items at the same step on different paths are causally
    *concurrent*.  ``path`` is ``"main"`` or ``"body"``; within one
    path items are ordered by ``pos``.
    """

    __slots__ = ("op", "path", "pos", "step")

    def __init__(self, op, path: str, pos: int, step: int) -> None:
        self.op = op
        self.path = path
        self.pos = pos
        self.step = step


def _happens_before(a: _Item, b: _Item) -> bool:
    if a.step < b.step:
        return True
    if a.step > b.step:
        return False
    return a.path == b.path and a.pos < b.pos


def _schedule_items(program: SweepProgram, add) -> list[_Item]:
    """Assign every issued op its (path, pos, step) coordinates.

    Main-path ``OMP_BARRIER`` ops advance the step.  A ``COMM_THREAD``
    spawn does not (the comm thread is a team thread: only a barrier
    publishes main-path writes to it); its body runs at the spawn's
    step, and the next main-path barrier joins the thread and closes
    the region.  A region still open at the end of the stream is an
    error.
    """
    items: list[_Item] = []
    step = 0
    pos = 0
    region_open = False
    for op in program.ops:
        if op.kind == "COMM_THREAD":
            if region_open:
                add("COMM_THREAD spawned while another region is still open")
                continue
            items.extend(_Item(inner, "body", i, step) for i, inner in enumerate(op.body))
            region_open = True
        elif op.kind == "OMP_BARRIER":
            step += 1
            region_open = False  # join: the comm thread is done
        else:
            items.append(_Item(op, "main", pos, step))
            pos += 1
    if region_open:
        add("COMM_THREAD region is never joined: no main-path OMP_BARRIER "
            "remains to join the communication thread at program end")
    return items


def lint_sweep_program(program: SweepProgram) -> "list[Finding]":
    """Lint *program*; returns all findings (empty = provably well-formed)."""
    from repro.check.findings import Finding

    findings: list[Finding] = []

    def add(message: str, **details: object) -> None:
        findings.append(Finding(
            kind="program-lint",
            message=f"{program.label}: {message}",
            details={"scheme": program.scheme, **details},
        ))

    items = _schedule_items(program, add)

    def find(kind: str) -> list[_Item]:
        return [it for it in items if it.op.kind == kind]

    def require(a_kind: str, b_kind: str, why: str) -> None:
        """Every (a, b) instance pair must satisfy a happens-before b."""
        for a in find(a_kind):
            for b in find(b_kind):
                if not _happens_before(a, b):
                    add(f"{b_kind} is not ordered after {a_kind} ({why})")

    # -- request lifecycle and kernel shape ---------------------------
    for kind in ("POST_RECVS", "PACK", "POST_SENDS", "WAITALL"):
        c = len(find(kind))
        if c != 1:
            add(f"{kind} appears {c}x (must be exactly once)")
    n_full = len(find("FULL_SPMVM"))
    n_local = len(find("LOCAL_SPMVM"))
    n_remote = len(find("REMOTE_SPMVM"))
    if n_full:
        if n_full > 1 or n_local or n_remote:
            add("FULL_SPMVM must be the only kernel op")
    elif (n_local, n_remote) != (1, 1):
        add(f"split kernel needs exactly one LOCAL_SPMVM and one REMOTE_SPMVM "
            f"(got {n_local} and {n_remote})")

    # -- ordering -----------------------------------------------------
    require("POST_RECVS", "POST_SENDS", "receives must be preposted before the sends")
    require("PACK", "POST_SENDS", "send buffers must be published before they are sent")
    require("POST_SENDS", "WAITALL", "WAITALL completes requests that must already exist")
    require("POST_RECVS", "WAITALL", "WAITALL completes requests that must already exist")
    for kernel in ("REMOTE_SPMVM", "FULL_SPMVM"):
        require("WAITALL", kernel, "the kernel consumes the halo the exchange lands")
    require("LOCAL_SPMVM", "REMOTE_SPMVM",
            "the remote phase accumulates into the local result")
    return findings


def lint_sweep_programs(
    programs: Iterable[SweepProgram] | None = None,
) -> "list[Finding]":
    """Lint a collection of programs (default: every builder output).

    This is ``repro check``'s program pass: all Fig. 4 builders, scalar
    and batched widths.
    """
    from repro.program.build import all_sweep_programs

    if programs is None:
        programs = all_sweep_programs()
    findings: list[Finding] = []
    for program in programs:
        findings.extend(lint_sweep_program(program))
    return findings
