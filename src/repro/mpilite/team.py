"""The process-wide team of parked threads every rank and comm thread runs on.

An mpilite rank (:meth:`World.start_ranks
<repro.mpilite.world.World.start_ranks>`, for :func:`~repro.mpilite.world.run_spmd`
and :class:`~repro.serve.SolverService`) and an engine's task-mode
communication thread (:meth:`DistributedSpMVM.team_thread
<repro.core.spmvm.DistributedSpMVM.team_thread>`) are both "a thread
that runs one job and then waits": the OpenMP runtime's answer is a
team created once and parked between parallel regions, and so is this
one.  :func:`borrow` takes a parked :class:`TeamThread` (or makes one
when none is parked), :meth:`TeamThread.hand_off` gives it a job,
:meth:`TeamThread.wait` takes the job's completion token, and
:func:`give_back` parks it again for the next borrower — so a one-shot
``distributed_spmv`` starts and joins no thread after the first call.

A borrowed thread wears its role as its name (``mpilite-rank-<r>``,
``<service>-rank<r>``, ``comm-thread-<r>``) and a parked one
``team-<i>``: a thread census or a hang dump says who holds what.  The
team keeps at most :data:`MAX_PARKED` threads; one given back beyond
that ends.  A forked child starts with an empty team.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import queue
import sys
import threading
from typing import Callable

__all__ = ["MAX_PARKED", "TeamThread", "borrow", "give_back"]

#: Parked threads the team keeps; a thread given back beyond this ends.
MAX_PARKED = 64

_parked: queue.SimpleQueue = queue.SimpleQueue()
_numbers = itertools.count()


def _forget_parked() -> None:
    # a forked child inherits the parked threads' objects, not the threads
    global _parked
    _parked = queue.SimpleQueue()


os.register_at_fork(after_in_child=_forget_parked)


class TeamThread(threading.Thread):
    """A team thread: runs the jobs it is handed, one at a time.

    The mailbox is a pair of ``queue.SimpleQueue``s, one per direction.
    :meth:`hand_off` puts a job (a callable that should not raise; one
    that does goes to ``threading.excepthook``) in the inbox and
    :meth:`wait` takes its completion token from the other — exactly one
    per job, so the thread outlives any job.  Those two hand-offs are the job's two
    happens-before edges: what a thread start and a join give a thread
    of its own.  Nothing polls, sleeps or wakes on a timeout.

    Each job runs in a fresh, empty :mod:`contextvars` context (what a
    new thread starts with), and the thread drops the job before it
    posts the token, so a parked thread refers to nothing its last
    borrower owned.  A daemon, so an interpreter exiting with threads
    parked or stuck does not wait for them.
    """

    def __init__(self) -> None:
        self.parked_name = f"team-{next(_numbers)}"
        super().__init__(name=self.parked_name, daemon=True)
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def run(self) -> None:
        inbox, done = self._inbox, self._done
        while True:
            job = inbox.get()
            if job is None:
                return
            try:
                contextvars.Context().run(job)
            except BaseException:
                # a job that raises anyway is reported as an uncaught
                # thread exception would be, and the thread stays usable:
                # its token is posted below, so its borrower gives it back
                threading.excepthook(threading.ExceptHookArgs((*sys.exc_info(), self)))
            finally:
                job = None  # park without a reference to the borrower's state
                done.put(None)

    def hand_off(self, job: Callable[[], None]) -> None:
        """Give *job* to the thread (the first hand-off starts it).

        The first job is queued *before* ``start()``: the new thread
        finds it on its first ``get`` and pays one wake-up, not two.
        """
        self._inbox.put(job)
        if self.ident is None:
            self.start()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job handed off last has finished; False if
        *timeout* seconds pass first."""
        try:
            self._done.get(timeout=timeout)
        except queue.Empty:
            return False
        return True

    def retire(self) -> None:
        """End the thread once its current job (if any) is done; a
        retired thread is never handed another job."""
        self._inbox.put(None)


def borrow(name: str) -> TeamThread:
    """A parked team thread, renamed *name* (a new, not yet started one
    when none is parked)."""
    try:
        thread = _parked.get_nowait()
    except queue.Empty:
        thread = TeamThread()
    thread.name = name
    return thread


def give_back(thread: TeamThread) -> None:
    """Park *thread*, whose last job has finished, for the next borrower.

    Safe from a ``weakref.finalize`` callback on any thread:
    ``SimpleQueue.put`` is reentrant and nothing here takes a lock.  A
    thread that was started and has ended (retired, or inherited by a
    forked child, where only the forking thread lives on) is dropped: a
    job handed to it would never finish.
    """
    if thread.ident is not None and not thread.is_alive():
        return
    thread.name = thread.parked_name
    if _parked.qsize() >= MAX_PARKED:
        thread.retire()
    else:
        _parked.put(thread)
