"""Launching SPMD functions on an mpilite world.

:class:`World` is the shared runtime (router, collective state, one
communicator per rank) and the one way a rank runs: ``start_ranks``
hands each rank's job to a thread borrowed from the process-wide team
(:mod:`repro.mpilite.team`), ``join_ranks`` waits for all of them
against one deadline and parks the threads again.  :func:`run_spmd`,
the ``mpiexec`` equivalent, does both for one function and re-raises
the first failing rank's exception (the one-shot drivers of
:mod:`repro.core.spmvm` run its two halves apart, to check their plan
in between); the :mod:`repro.serve` worker pool starts its ranks once
and joins them at close.  :meth:`World.abort`
tears a world down, waking every blocked operation with a
provenance-carrying :class:`~repro.mpilite.router.WorldAbortedError`
instead of letting survivors run out their timeouts.

A world's ``observer`` (a :class:`repro.check.Checker`) is given in one
place, its constructor, which claims it: a second world given the same
checker raises ``ValueError``.  ``run_spmd`` passes its own through.
Every hook site reads that one slot — the router and the collectives
directly, each communicator through its router.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.mpilite.comm import CollectiveState, Comm
from repro.mpilite.router import Router
from repro.mpilite.team import TeamThread, borrow, give_back
from repro.util import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.checker import Checker

__all__ = ["run_spmd", "World", "PerRank"]


class World:
    """The long-lived shared runtime of one mpilite world.

    Owns the router, the collective state and one pre-built communicator
    per rank.  Unlike :func:`run_spmd`, which stands all of this up and
    tears it down per call, a ``World`` persists across requests — any
    thread may drive ``world.comms[r]`` as rank *r* for as long as the
    world lives.
    """

    def __init__(
        self,
        nranks: int,
        *,
        recv_timeout: float | None = None,
        observer: "Checker | None" = None,
    ) -> None:
        nranks = check_positive_int(nranks, "nranks")
        if observer is not None:
            observer.claim()  # one Checker observes one run
        self.router = Router(nranks)
        self.collectives = CollectiveState(nranks, timeout=recv_timeout)
        self.router.observer = self.collectives.observer = observer
        self.comms = [
            Comm(r, self.router, self.collectives, default_timeout=recv_timeout)
            for r in range(nranks)
        ]
        self._ranks: list[TeamThread] = []

    @property
    def nranks(self) -> int:
        """World size."""
        return self.router.nranks

    @property
    def observer(self) -> "Checker | None":
        """The observer given at construction (``None``: unobserved)."""
        return self.router.observer

    def abort(self, reason: str) -> None:
        """Tear the world down: every blocked or future operation raises
        :class:`~repro.mpilite.router.WorldAbortedError` naming *reason*
        plus its own rank/peer/tag."""
        self.router.abort(reason)
        self.collectives.abort(reason)

    def start_ranks(self, job: Callable[[int], None], role: str) -> None:
        """Run ``job(rank)`` for every rank, each on a team thread
        borrowed as ``<role><rank>``.  *job* should not raise (one that
        does goes to ``threading.excepthook``)."""
        self._ranks = [borrow(f"{role}{r}") for r in range(self.nranks)]
        for r, thread in enumerate(self._ranks):
            thread.hand_off(functools.partial(job, r))

    def join_ranks(self, deadline: float) -> list[str]:
        """Wait for the started ranks until ``time.monotonic()`` reaches
        *deadline*; return the names of those still running.

        A finished rank's thread goes back to the team; a running one
        keeps its thread, which ends when the rank does.  A second call
        waits for nothing.
        """
        ranks, self._ranks = self._ranks, []
        stuck = []
        for thread in ranks:
            if thread.wait(max(0.0, deadline - time.monotonic())):
                give_back(thread)
            else:
                stuck.append(thread.name)
                thread.retire()
        return stuck


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    recv_timeout: float | None = None,
    observer: "Checker | None" = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on *nranks* ranks; return results.

    Per-rank positional arguments may be supplied by passing a list/tuple
    whose length equals *nranks* wrapped in :class:`PerRank`.

    ``recv_timeout`` is the world's default blocking-receive (and
    collective) timeout, handed to every rank's communicator so tests can
    shrink the safety net in one place.  ``observer`` (a
    :class:`repro.check.Checker`) is handed to the :class:`World` — the
    opt-in dynamic correctness analyzer; ``None`` (the default) is the
    unobserved fast path.

    A rank whose ``fn`` raises aborts the world, so peers blocked on it
    fail at once, and the ``RuntimeError`` raised here names that rank
    and chains its exception — the first failure, not its casualties.
    Ranks still running after *timeout* seconds are named in a
    ``TimeoutError`` (:meth:`World.join_ranks`).
    """
    world = World(nranks, recv_timeout=recv_timeout, observer=observer)
    return _start_spmd(world, fn, args, kwargs, timeout)()


def _start_spmd(
    world: World,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict[str, Any],
    timeout: float = 120.0,
) -> Callable[[], list[Any]]:
    """:func:`run_spmd` in two halves, on a fresh *world*: start the
    ranks now and return the join, which waits for them and returns
    their results or raises as ``run_spmd`` does.  The caller's thread
    is free in between; call the join exactly once, also when the
    caller's own work fails."""
    deadline = time.monotonic() + timeout
    observer = world.observer
    results: list[Any] = [None] * world.nranks
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = world.comms[rank]
        rank_args = tuple(a.values[rank] if isinstance(a, PerRank) else a for a in args)
        rank_kwargs = {
            k: (v.values[rank] if isinstance(v, PerRank) else v) for k, v in kwargs.items()
        }
        try:
            results[rank] = fn(comm, *rank_args, **rank_kwargs)
        except BaseException as exc:  # noqa: BLE001 - surface everything
            with lock:
                errors.append((rank, exc))
                if len(errors) == 1:
                    # the cause: fail its peers' blocked operations now, not
                    # after a receive timeout (they land in `errors` behind it)
                    world.abort(f"rank {rank} failed: {exc!r}")
        finally:
            if observer is not None:
                observer.on_rank_finished(rank)

    def join() -> list[Any]:
        stuck = world.join_ranks(deadline)
        if stuck:
            raise TimeoutError(
                f"{len(stuck)} rank(s) did not finish within {timeout} s "
                f"(likely an mpilite deadlock): {stuck}"
            )
        if errors:
            rank, exc = errors[0]  # the first failure in time; the rest are its casualties
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        return results

    world.start_ranks(runner, "mpilite-rank-")
    return join


class PerRank:
    """Marks an argument of :func:`run_spmd` as per-rank (one value each)."""

    def __init__(self, values: list[Any]) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)
