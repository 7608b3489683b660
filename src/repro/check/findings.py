"""Findings: the common currency of both analysis prongs.

Every detector — dynamic (deadlock, leaked request, unconsumed message,
thread race) and static (plan, program and AST lint) — reports
:class:`Finding` records with full provenance: the ranks involved, the
plan channel/phase where applicable, and a free-form ``details`` payload
(tags, peers, the wait-for cycle, the racing ops, ...).  A :class:`CheckReport`
aggregates them with enough context to render a human-readable digest
and to gate CI (zero findings = pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["FINDING_KINDS", "Finding", "CheckReport"]

#: Every kind a report may carry (stable identifiers, used by tests and
#: the CLI ``--seed-bug`` fixtures).  All but the last two are detector
#: diagnoses; ``wrong-result`` is a finished run whose product is not the
#: serial kernel's, ``world-failure`` a run that raised without a
#: diagnosis, and neither ever counts as a detector firing.
FINDING_KINDS = (
    "deadlock",
    "leaked-request",
    "unconsumed-message",
    "plan-lint",
    "program-lint",
    "thread-race",
    "ast-lint",
    "wrong-result",
    "world-failure",
)


@dataclass(frozen=True)
class Finding:
    """One correctness diagnosis with provenance.

    ``ranks`` lists every rank implicated (cycle members for a deadlock,
    sender and receiver for an unconsumed message, the poster for a
    leak); ``channel``/``phase``
    locate plan-lint findings inside a :class:`~repro.comm.plan.CommPlan`.
    """

    kind: str
    message: str
    ranks: tuple[int, ...] = ()
    channel: int | None = None
    phase: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r} (expected one of {FINDING_KINDS})")

    def describe(self) -> str:
        """One rendered line: kind, location, message."""
        where = []
        if self.ranks:
            where.append("rank" + ("s" if len(self.ranks) > 1 else "")
                         + " " + ",".join(str(r) for r in self.ranks))
        if self.channel is not None:
            where.append(f"channel {self.channel}")
        if self.phase is not None:
            where.append(f"phase {self.phase}")
        loc = f" [{'; '.join(where)}]" if where else ""
        return f"{self.kind}{loc}: {self.message}"


@dataclass
class CheckReport:
    """Aggregated findings of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    #: dynamic-prong bookkeeping: operations the checker observed
    events_observed: int = 0
    #: free-form context ("scheme=task_mode plan=node-aware", ...)
    context: str = ""

    @property
    def ok(self) -> bool:
        """True when no detector fired."""
        return not self.findings

    def kinds(self) -> list[str]:
        """Distinct finding kinds, in first-appearance order."""
        seen: list[str] = []
        for f in self.findings:
            if f.kind not in seen:
                seen.append(f.kind)
        return seen

    def by_kind(self, kind: str) -> list[Finding]:
        """All findings of one kind."""
        return [f for f in self.findings if f.kind == kind]

    def extend(self, findings: Iterable[Finding]) -> None:
        """Append findings (used when merging prongs)."""
        self.findings.extend(findings)

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Fold *other* into this report (returns self for chaining)."""
        self.findings.extend(other.findings)
        self.events_observed += other.events_observed
        return self

    def render(self, title: str | None = None) -> str:
        """Human-readable digest, one line per finding."""
        lines = [title or ("check report" + (f" ({self.context})" if self.context else ""))]
        if self.ok:
            lines.append(f"  clean: no findings ({self.events_observed} operations observed)")
        else:
            lines.append(
                f"  {len(self.findings)} finding(s) over "
                f"{self.events_observed} observed operation(s):"
            )
            lines.extend(f"  - {f.describe()}" for f in self.findings)
        return "\n".join(lines)
