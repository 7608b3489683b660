"""Request lifecycle edge cases and recv-timeout provenance (satellite tests).

The Request contract mirrors mpi4py/MPI: wait() is idempotent and send
requests complete eagerly under buffered semantics.
"""

import time

import numpy as np
import pytest

from repro.mpilite import CollectiveState, Comm, PerRank, Router, run_spmd


# ----------------------------------------------------------------------
# wait() idempotence
# ----------------------------------------------------------------------
def test_wait_twice_returns_the_same_value():
    def fn(comm):
        if comm.rank == 0:
            comm.send({"k": 1}, 1, tag=3)
            return None
        req = comm.irecv(0, tag=3)
        first = req.wait()
        second = req.wait()  # must not attempt a second receive
        assert first is second
        return first

    results = run_spmd(2, fn, recv_timeout=10.0)
    assert results[1] == {"k": 1}


def test_send_requests_complete_eagerly():
    def fn(comm):
        if comm.rank == 0:
            small = comm.isend([1, 2], 1, tag=2)
            big = comm.isend(np.zeros(64), 1, tag=3)
            # buffered sends: complete before the receiver even posts
            assert small.wait() is None
            assert big.wait() is None
        else:
            time.sleep(0.05)  # ensure the sender's asserts run first
            assert comm.recv(0, tag=2) == [1, 2]
            assert np.all(comm.recv(0, tag=3) == np.zeros(64))

    run_spmd(2, fn, recv_timeout=10.0)


# ----------------------------------------------------------------------
# peers and tags checked at the call
# ----------------------------------------------------------------------
@pytest.mark.parametrize("call", ["send", "isend", "recv", "irecv"])
def test_bad_peers_and_tags_are_rejected_at_the_call(call):
    # every receive names its sender: a peer of -1 or a negative tag is
    # an error at once, not a channel nobody sends on, waited on until
    # the timeout (irecv raises when posted, not at wait())
    comm = Comm(0, Router(2), CollectiveState(2), default_timeout=1.0)
    sends = call in ("send", "isend")
    name = "dest" if sends else "source"
    op = getattr(comm, call)

    def invoke(peer, tag):
        return op("x", peer, tag) if sends else op(peer, tag)

    for peer in (-1, 2):
        with pytest.raises(ValueError, match=rf"{name}={peer} out of range \[0, 2\)"):
            invoke(peer, 0)
    with pytest.raises(ValueError, match=r"tag=-1 out of range: MPI tags are >= 0"):
        invoke(1, -1)


# ----------------------------------------------------------------------
# timeout provenance (satellite 1 regression coverage)
# ----------------------------------------------------------------------
def test_recv_timeout_names_rank_peer_and_tag():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, tag=9, timeout=0.1)

    with pytest.raises(RuntimeError, match=r"rank 0.*from 1.*tag 9.*0\.1 s"):
        run_spmd(2, fn, recv_timeout=10.0)


def test_world_default_recv_timeout_is_routed_to_comm():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, tag=4)  # no explicit timeout: world default applies

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"tag 4.*0\.2 s"):
        run_spmd(2, fn, recv_timeout=0.2)
    assert time.monotonic() - t0 < 5.0  # failed fast, not at the 120 s net


# ----------------------------------------------------------------------
# PerRank plumbing (used heavily by the analyzer fixtures)
# ----------------------------------------------------------------------
def test_per_rank_arguments_reach_the_right_rank():
    def fn(comm, mine):
        return mine * 10

    assert run_spmd(3, fn, PerRank([1, 2, 3])) == [10, 20, 30]
