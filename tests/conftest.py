"""Shared fixtures: small matrices built once per test session, the
per-test hang watchdog and the per-test leaked-thread check."""

from __future__ import annotations

import faulthandler
import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.matrices import build_samg_like, get_matrix, random_sparse
from repro.mpilite.team import TeamThread

#: Seconds one test may run before the watchdog kills the session.  The
#: whole tier-1 suite takes about a minute; only a hang gets near this.
HANG_TIMEOUT_SECONDS = 300.0

_real_stderr_fd = 2


def pytest_configure(config):
    # output capture is suspended while pytest configures, so fd 2 is the
    # terminal here; inside a test it is the capture file, which a hard
    # exit would throw away together with the dump
    global _real_stderr_fd
    _real_stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def hang_watchdog():
    """A hung exchange fails the run with every thread's stack.

    pytest-timeout is not installed; without it a deadlocked rank thread
    stalls the job until the CI runner gives up, with no trace.  The
    stdlib watchdog dumps all thread tracebacks to the real stderr and
    exits the process (status 1) once a test exceeds the bound.
    """
    faulthandler.dump_traceback_later(HANG_TIMEOUT_SECONDS, exit=True, file=_real_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


def borrowed_threads() -> list[str]:
    """Names of the team threads some rank or engine still holds: a
    borrowed thread wears its role instead of its parked name."""
    return sorted(
        t.name
        for t in threading.enumerate()
        if isinstance(t, TeamThread) and t.name != t.parked_name
    )


def unparked_thread_count() -> int:
    """Live threads other than the team's parked ones: what a call that
    starts no thread of its own leaves unchanged."""
    return sum(1 for t in threading.enumerate() if not t.name.startswith("team-"))


def grow_team(nthreads: int) -> None:
    """Make sure the team has *nthreads* parked threads.

    A call's ranks and comm threads need not all be out at once (a rank
    that is done gives its comm thread back before a slower one borrows),
    so one warm-up call may leave the team short of the next call's peak.
    """
    from repro.mpilite import run_spmd

    run_spmd(nthreads, lambda comm: None)


@pytest.fixture(autouse=True)
def no_leaked_comm_thread():
    """No rank or communication thread outlives the test that borrowed it.

    ``run_spmd`` gives its rank threads back before it returns, and a
    service when it is closed.  An engine
    holds one ``comm-thread-<rank>`` from its first task-mode sweep until
    it is closed — or, for the many tests (and the ledger's rank
    functions) that just drop it, until its finalizer gives it back.
    That is asynchronous, so stragglers get a bounded wait.
    """
    yield
    if borrowed_threads() and not _all_given_back(0.25):
        gc.collect()  # an engine held by a traceback cycle: collect it, then wait
        assert _all_given_back(2.0), f"team thread(s) outlived the test: {borrowed_threads()}"


def _all_given_back(seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while borrowed_threads():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture()
def thread_starts(monkeypatch):
    """Names of every thread started while the test runs."""
    started: list[str] = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture(scope="session")
def hmep_tiny():
    """Tiny HMeP Hamiltonian (dim 540)."""
    return get_matrix("HMeP", "tiny").build()


@pytest.fixture(scope="session")
def hmep_bad_tiny():
    """Tiny HMEp (scattered ordering) Hamiltonian."""
    return get_matrix("HMEp", "tiny").build()


@pytest.fixture(scope="session")
def hmep_small():
    """Small HMeP Hamiltonian (dim 33 600) — large enough that the
    communication-bound qualitative claims of the paper hold."""
    return get_matrix("HMeP", "small").build_cached()


@pytest.fixture(scope="session")
def samg_tiny():
    """Tiny sAMG-like FV Poisson matrix (~2k rows)."""
    return get_matrix("sAMG", "tiny").build()


@pytest.fixture(scope="session")
def random_300():
    """A 300x300 random sparse matrix with Nnzr ~ 9."""
    return random_sparse(300, nnzr=9.0, seed=3)


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)
