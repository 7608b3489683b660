"""Race analysis unit tests on hand-built histories (no threads involved)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.check.races import analyze_races
from repro.check.checker import RecvEvent, SendEvent
from repro.check.vclock import vc_concurrent, vc_leq, vc_merge, vc_tick, vc_tick_merge

ANY = -1

_clock = st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3).map(tuple)


@given(a=_clock, b=_clock, rank=st.integers(min_value=0, max_value=2))
def test_vc_tick_merge_equals_merge_of_tick(a, b, rank):
    assert vc_tick_merge(a, rank, b) == vc_merge(vc_tick(a, rank), b)


@given(a=_clock, b=_clock)
def test_vc_concurrency_is_symmetric_and_irreflexive(a, b):
    assert vc_concurrent(a, b) == vc_concurrent(b, a)
    assert not vc_concurrent(a, a)
    if vc_leq(a, b) or vc_leq(b, a):
        assert not vc_concurrent(a, b)


def _send(eid, src, dst, tag, vc):
    return SendEvent(eid=eid, src=src, dst=dst, tag=tag, nbytes=8, vc=tuple(vc))


def _recv(eid, rank, req_src, req_tag, send):
    return RecvEvent(eid=eid, rank=rank, req_src=req_src, req_tag=req_tag, send=send)


def test_concurrent_wildcard_candidates_are_a_confirmed_race():
    a = _send(0, 1, 0, 5, (0, 1, 0))
    b = _send(1, 2, 0, 5, (0, 0, 1))  # concurrent with a
    recvs = [_recv(2, 0, ANY, 5, a), _recv(3, 0, ANY, 5, b)]
    findings = analyze_races([a, b], recvs, 3)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "message-race"
    assert f.details["matched"] == (1, 5, 0)
    assert f.details["alternative"] == (2, 5, 1)
    # the replay rematches the displaced message to the second receive
    assert f.details["permuted_matching"] == [(2, (2, 5, 1)), (3, (1, 5, 0))]


def test_causally_ordered_candidates_do_not_race():
    a = _send(0, 1, 0, 5, (0, 1, 0))
    # b causally after a (rank 2 heard about a before sending)
    b = _send(1, 2, 0, 5, (1, 1, 1))
    recvs = [_recv(2, 0, ANY, 5, a), _recv(3, 0, ANY, 5, b)]
    assert analyze_races([a, b], recvs, 3) == []


def test_non_wildcard_receives_never_race():
    a = _send(0, 1, 0, 5, (0, 1, 0))
    b = _send(1, 2, 0, 5, (0, 0, 1))
    recvs = [_recv(2, 0, 1, 5, a), _recv(3, 0, 2, 5, b)]
    assert analyze_races([a, b], recvs, 3) == []


def test_same_channel_fifo_order_is_not_a_race():
    # two sends from the same rank on the same tag: FIFO fixes the order,
    # and the sender's own clock orders them causally anyway
    a = _send(0, 1, 0, 5, (0, 1, 0))
    b = _send(1, 1, 0, 5, (0, 2, 0))
    recvs = [_recv(2, 0, ANY, 5, a), _recv(3, 0, ANY, 5, b)]
    assert analyze_races([a, b], recvs, 2) == []


def test_infeasible_permutation_is_dismissed():
    # the wildcard receive could have taken c (tag 6), but then the next
    # receive demands tag 6 again and nothing is left: replay fails
    a = _send(0, 1, 0, 5, (0, 1, 0))
    c = _send(1, 2, 0, 6, (0, 0, 1))
    recvs = [_recv(2, 0, ANY, ANY, a), _recv(3, 0, 2, 6, c)]
    assert analyze_races([a, c], recvs, 3) == []


def test_any_tag_race_across_tags():
    # two different senders on different tags racing for an ANY/ANY receive
    a = _send(0, 1, 0, 5, (0, 1, 0))
    b = _send(1, 2, 0, 6, (0, 0, 1))
    recvs = [_recv(2, 0, ANY, ANY, a), _recv(3, 0, ANY, ANY, b)]
    findings = analyze_races([a, b], recvs, 3)
    assert len(findings) == 1
    assert findings[0].details["alternative"] == (2, 6, 1)


def test_consumed_candidates_are_not_eligible():
    # b was already consumed by an earlier receive: only a remains for
    # the wildcard, so there is nothing to race with
    a = _send(0, 1, 0, 5, (0, 1, 0))
    b = _send(1, 2, 0, 5, (0, 0, 1))
    recvs = [_recv(2, 0, 2, 5, b), _recv(3, 0, ANY, 5, a)]
    assert analyze_races([a, b], recvs, 3) == []
