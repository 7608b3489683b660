"""Message-race detection over a recorded communication history.

A *message race* is a receive whose matching is not fixed by
happens-before: at its matching point, two sends were simultaneously
eligible and causally unordered, so a different thread schedule delivers
different data.  In mpilite this can only arise through wildcard
receives — each concrete ``(src, tag)`` channel is FIFO and a single
sender's posts are totally ordered by its own clock, so non-wildcard
matching is deterministic by construction (the analysis still verifies
that: a candidate must be at its channel's FIFO head to be eligible).

Detection is two-staged, mirroring how MPI race checkers avoid crying
wolf:

1. **Candidate scan** — for every wildcard receive ``R`` matched to send
   ``M``, find sends ``C`` to the same rank that match ``R``'s pattern,
   were unconsumed and FIFO-eligible at ``R``'s matching point, and are
   vector-clock concurrent with ``M`` (causally ordered pairs cannot
   race: the router drains wildcard matches in arrival order).
2. **Replay verification** — force ``R`` to match ``C`` instead, then
   greedily re-match the rank's subsequent receives in program order
   (pattern + FIFO eligibility, oldest send first).  Only if every
   receive still finds a message is the permuted matching a complete,
   valid alternative execution — a *confirmed* race, reported with both
   matchings in the finding's details.
"""

from __future__ import annotations

from repro.check.findings import Finding
from repro.check.checker import RecvEvent, SendEvent
from repro.check.vclock import vc_concurrent

__all__ = ["analyze_races"]

_ANY = -1


def _matches(req_src: int, req_tag: int, send: SendEvent) -> bool:
    return (req_src == _ANY or send.src == req_src) and (
        req_tag == _ANY or send.tag == req_tag
    )


def _fifo_eligible(send: SendEvent, sends_to: list[SendEvent], consumed: set[int]) -> bool:
    """Whether *send* is at the head of its channel given *consumed*."""
    return all(
        s.eid in consumed
        for s in sends_to
        if (s.src, s.tag) == (send.src, send.tag) and s.eid < send.eid
    )


def _replay(
    rlist: list[RecvEvent],
    i: int,
    alt: SendEvent,
    sends_to: list[SendEvent],
    consumed_before: set[int],
) -> list[tuple[RecvEvent, SendEvent]] | None:
    """Force ``rlist[i]`` to match *alt* and re-match the rest greedily.

    Returns the complete permuted matching, or None when some subsequent
    receive finds no eligible message (the permutation is infeasible and
    the candidate is dismissed).
    """
    consumed = set(consumed_before)
    consumed.add(alt.eid)
    matching = [(rlist[i], alt)]
    for recv in rlist[i + 1 :]:
        pick = None
        for s in sends_to:  # eid order = global arrival order
            if s.eid in consumed or not _matches(recv.req_src, recv.req_tag, s):
                continue
            if _fifo_eligible(s, sends_to, consumed):
                pick = s
                break
        if pick is None:
            return None
        consumed.add(pick.eid)
        matching.append((recv, pick))
    return matching


def _describe_pattern(req_src: int, req_tag: int) -> str:
    src = "ANY_SOURCE" if req_src == _ANY else str(req_src)
    tag = "ANY_TAG" if req_tag == _ANY else str(req_tag)
    return f"recv(source={src}, tag={tag})"


def analyze_races(
    sends: list[SendEvent], recvs: list[RecvEvent], nranks: int
) -> list[Finding]:
    """Scan a recorded history for confirmed message races (see module doc)."""
    findings: list[Finding] = []
    by_rank: dict[int, list[RecvEvent]] = {}
    for r in recvs:
        by_rank.setdefault(r.rank, []).append(r)
    sends_by_dst: dict[int, list[SendEvent]] = {}
    for s in sends:
        sends_by_dst.setdefault(s.dst, []).append(s)

    for rank, rlist in sorted(by_rank.items()):
        sends_to = sorted(sends_by_dst.get(rank, []), key=lambda s: s.eid)
        consumed: set[int] = set()
        for i, recv in enumerate(rlist):
            matched = recv.send
            if recv.wildcard:
                for cand in sends_to:
                    if cand.eid == matched.eid or cand.eid in consumed:
                        continue
                    if not _matches(recv.req_src, recv.req_tag, cand):
                        continue
                    if not _fifo_eligible(cand, sends_to, consumed):
                        continue
                    if not vc_concurrent(cand.vc, matched.vc):
                        continue
                    permuted = _replay(rlist, i, cand, sends_to, consumed)
                    if permuted is None:
                        continue
                    findings.append(Finding(
                        kind="message-race",
                        message=(
                            f"rank {rank}: {_describe_pattern(recv.req_src, recv.req_tag)} "
                            f"matched the send from rank {matched.src} (tag {matched.tag}) "
                            f"but the concurrent send from rank {cand.src} "
                            f"(tag {cand.tag}) was equally eligible; the permuted "
                            f"matching replays to completion, so the received data "
                            f"depends on thread arrival order"
                        ),
                        ranks=(rank, matched.src, cand.src),
                        details={
                            "matched": (matched.src, matched.tag, matched.eid),
                            "alternative": (cand.src, cand.tag, cand.eid),
                            "permuted_matching": [
                                (rv.eid, (sd.src, sd.tag, sd.eid)) for rv, sd in permuted
                            ],
                        },
                    ))
                    break  # one finding per racy receive
            consumed.add(matched.eid)
    return findings
