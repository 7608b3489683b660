"""Request lifecycle edge cases and recv-timeout provenance (satellite tests).

The Request contract mirrors mpi4py/MPI: wait() is idempotent and send
requests complete eagerly under buffered semantics.
"""

import time

import numpy as np
import pytest

from repro.mpilite import PerRank, run_spmd
from repro.mpilite.router import ANY_SOURCE, ANY_TAG


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
# wildcard receives
# ----------------------------------------------------------------------
def test_wildcard_receive_drains_in_global_arrival_order():
    def fn(comm):
        if comm.rank == 0:
            return [comm.recv(ANY_SOURCE, tag=ANY_TAG) for _ in range(2)]
        # rank 2 waits for rank 1's send to be forwarded before sending,
        # so the global arrival order is deterministic
        if comm.rank == 1:
            comm.send("first", 0, tag=11)
            comm.send("go", 2, tag=0)
        else:
            comm.recv(1, tag=0)
            comm.send("second", 0, tag=12)
        return None

    results = run_spmd(3, fn, recv_timeout=10.0)
    assert results[0] == ["first", "second"]


def test_any_source_with_fixed_tag_filters_on_tag():
    def fn(comm):
        if comm.rank == 0:
            comm.send("wrong-tag", 1, tag=5)
            comm.send("right-tag", 1, tag=7)
            return None
        first = comm.recv(ANY_SOURCE, tag=7)
        second = comm.recv(0, tag=5)
        return [first, second]

    assert run_spmd(2, fn, recv_timeout=10.0)[1] == ["right-tag", "wrong-tag"]


# ----------------------------------------------------------------------
# timeout provenance (satellite 1 regression coverage)
# ----------------------------------------------------------------------
def test_recv_timeout_names_rank_peer_and_tag():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(1, tag=9, timeout=0.1)

    with pytest.raises(RuntimeError, match=r"rank 0.*from 1.*tag 9.*0\.1 s"):
        run_spmd(2, fn, recv_timeout=10.0)


def test_recv_timeout_describes_wildcards():
    def fn(comm):
        if comm.rank == 0:
            comm.recv(ANY_SOURCE, tag=ANY_TAG, timeout=0.1)

    with pytest.raises(RuntimeError, match="ANY_SOURCE.*ANY_TAG"):
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
