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


@pytest.fixture(autouse=True)
def no_leaked_comm_thread():
    """No engine's communication thread outlives the test that started it.

    An engine parks one ``comm-thread-<rank>`` from its first task-mode
    sweep until it is closed — or, for the many tests (and the ledger's
    rank functions) that just drop it, until its finalizer posts the stop
    sentinel.  That is asynchronous, so stragglers get a bounded wait.
    """
    yield
    leaked = [t for t in threading.enumerate() if t.name.startswith("comm-thread-")]
    if leaked and not _all_exit(leaked, 0.25):
        gc.collect()  # an engine held by a traceback cycle: collect it, then wait
        assert _all_exit(leaked, 2.0), (
            f"communication thread(s) outlived the test: "
            f"{[t.name for t in leaked if t.is_alive()]}"
        )


def _all_exit(threads, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    return not any(t.is_alive() for t in threads)


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
