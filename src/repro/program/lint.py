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
* **vocabulary** — every op kind is known and tagged with a sweep the
  program has; ``COMM_THREAD`` bodies hold MPI ops and ``OMP_BARRIER``
  rendezvous points only (a communication thread executes library
  calls, never compute);
* **request lifecycle** — per sweep, receives, pack, sends and the
  ``WAITALL`` appear exactly once; receives are posted before the sends
  and ``WAITALL`` after both (no leaked requests by construction);
* **buffer publication** — ``PACK`` happens-before ``POST_SENDS``: when
  the sends run on the communication thread, an ``OMP_BARRIER``
  separates the pack from them;
* **comm-thread region balance** — at most one region open at a time,
  and every region joined by a main-path ``OMP_BARRIER`` before the
  program ends;
* **data readiness** — ``REMOTE_SPMVM``/``FULL_SPMVM`` run only after
  the sweep's ``WAITALL`` (on the main path, or behind a barrier when
  it ran on the comm thread); the kernel writes the result exactly once
  (one ``FULL_SPMVM`` or one ``LOCAL_SPMVM`` + ``REMOTE_SPMVM`` pair,
  local first);
* **chained input** — sweep ``s``'s pack/sends/kernel run after sweep
  ``s-1``'s kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.program.ir import COMM_OPS, SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.findings import Finding

__all__ = ["lint_sweep_program", "lint_sweep_programs"]

#: What a COMM_THREAD body may hold: MPI ops plus the OMP_BARRIER
#: rendezvous points that pace the thread against the compute threads.
_BODY_OPS = COMM_OPS + ("OMP_BARRIER",)


class _Item:
    """One issued op with its happens-before coordinates.

    ``step`` is a global logical time that only barriers advance; two
    items at the same step on different paths are causally
    *concurrent*.  ``path`` is ``("main",)`` or ``("body",
    region_index)``; within one path items are ordered by ``pos``.
    """

    __slots__ = ("op", "path", "pos", "step")

    def __init__(self, op, path, pos: int, step: int) -> None:
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
    publishes main-path writes to it); it splits its body at the body's
    own ``OMP_BARRIER`` rendezvous points into chunks: chunk 0 runs
    from the spawn, and each subsequent main barrier *while the region
    is open* releases the next chunk (rendezvous) — until no chunks
    remain, at which point the barrier joins the thread and closes the
    region.  A region still open at the end of the stream is an error.
    """
    items: list[_Item] = []
    step = 0
    pos = 0
    region = None  # (region_index, chunks, next_chunk)
    n_regions = 0
    for op in program.ops:
        if op.kind == "COMM_THREAD":
            if region is not None:
                add("COMM_THREAD spawned while another region is still open")
                continue
            chunks: list[list] = [[]]
            for inner in op.body:
                if inner.kind == "OMP_BARRIER":
                    chunks.append([])
                else:
                    chunks[-1].append(inner)
            body_pos = 0
            for inner in chunks[0]:
                items.append(_Item(inner, ("body", n_regions), body_pos, step))
                body_pos += 1
            region = [n_regions, chunks, 1, body_pos]
            n_regions += 1
            continue
        if op.kind == "OMP_BARRIER":
            step += 1
            if region is not None:
                idx, chunks, nxt, body_pos = region
                if nxt < len(chunks):
                    for inner in chunks[nxt]:
                        items.append(_Item(inner, ("body", idx), body_pos, step))
                        body_pos += 1
                    region[2] = nxt + 1
                    region[3] = body_pos
                else:
                    region = None  # join: the comm thread is done
            continue
        items.append(_Item(op, ("main",), pos, step))
        pos += 1
    if region is not None:
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
            details={"scheme": program.scheme, "n_sweeps": program.n_sweeps,
                     "pipeline": program.pipeline, **details},
        ))

    n = program.n_sweeps

    # -- vocabulary and sweep tags ------------------------------------
    for op, inside in program.walk():
        if inside and op.kind not in _BODY_OPS:
            add(f"comm thread executes {op.kind}; a communication thread may "
                f"only run {_BODY_OPS}")
        if op.kind != "COMM_THREAD" and not 0 <= op.sweep < n:
            add(f"{op.kind} tagged sweep {op.sweep}, outside 0..{n - 1}")

    items = _schedule_items(program, add)

    def find(kind: str, sweep: int) -> list[_Item]:
        return [it for it in items
                if it.op.kind == kind and it.op.sweep == sweep]

    def require(a_kind: str, s_a: int, b_kind: str, s_b: int, why: str) -> None:
        """Every (a, b) instance pair must satisfy a happens-before b."""
        for a in find(a_kind, s_a):
            for b in find(b_kind, s_b):
                if not _happens_before(a, b):
                    add(f"s{s_b}:{b_kind} is not ordered after s{s_a}:{a_kind} "
                        f"({why})")

    for s in range(n):
        # -- per-sweep request lifecycle and kernel shape -------------
        for kind in ("POST_RECVS", "PACK", "POST_SENDS", "WAITALL"):
            c = len(find(kind, s))
            if c != 1:
                add(f"sweep {s}: {kind} appears {c}x (must be exactly once)")
        n_full = len(find("FULL_SPMVM", s))
        n_local = len(find("LOCAL_SPMVM", s))
        n_remote = len(find("REMOTE_SPMVM", s))
        if n_full:
            if n_full > 1 or n_local or n_remote:
                add(f"sweep {s}: FULL_SPMVM must be the only kernel op")
        elif (n_local, n_remote) != (1, 1):
            add(f"sweep {s}: split kernel needs exactly one LOCAL_SPMVM and "
                f"one REMOTE_SPMVM (got {n_local} and {n_remote})")

        # -- intra-sweep ordering -------------------------------------
        require("POST_RECVS", s, "POST_SENDS", s,
                "receives must be preposted before the sends")
        require("PACK", s, "POST_SENDS", s,
                "send buffers must be published before they are sent")
        require("POST_SENDS", s, "WAITALL", s,
                "WAITALL completes requests that must already exist")
        require("POST_RECVS", s, "WAITALL", s,
                "WAITALL completes requests that must already exist")
        for kernel in ("REMOTE_SPMVM", "FULL_SPMVM"):
            require("WAITALL", s, kernel, s,
                    "the kernel consumes the halo the exchange lands")
        require("LOCAL_SPMVM", s, "REMOTE_SPMVM", s,
                "the remote phase accumulates into the local result")

        # -- chained input: sweep s consumes sweep s-1's result -------
        if s > 0:
            prev_kernel = "FULL_SPMVM" if find("FULL_SPMVM", s - 1) else "REMOTE_SPMVM"
            for consumer in ("PACK", "POST_SENDS", "LOCAL_SPMVM", "FULL_SPMVM"):
                require(prev_kernel, s - 1, consumer, s,
                        "sweep input is the previous sweep's result")
    return findings


def lint_sweep_programs(
    programs: Iterable[SweepProgram] | None = None,
) -> "list[Finding]":
    """Lint a collection of programs (default: every builder output).

    This is the ``repro check --programs`` sweep: all Fig. 4 builders,
    scalar and batched widths, one to three chained sweeps, pipelined
    and sequential.
    """
    from repro.program.build import all_sweep_programs

    if programs is None:
        programs = all_sweep_programs()
    findings: list[Finding] = []
    for program in programs:
        findings.extend(lint_sweep_program(program))
    return findings
