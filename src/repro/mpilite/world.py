"""Launching SPMD functions on an mpilite world.

:func:`run_spmd` is the ``mpiexec`` equivalent: it spawns one thread per
rank, hands each a :class:`~repro.mpilite.comm.Comm`, runs the given
function everywhere and collects the per-rank return values.  Exceptions
on any rank are re-raised on the caller (first failing rank wins) so
test failures stay loud.

:func:`open_world` is the *persistent* variant: it builds the shared
runtime (router, collective state, one communicator per rank) and hands
it to the caller to keep alive across many requests — the substrate of
the :mod:`repro.serve` worker pool.  :meth:`World.abort` tears it down,
waking every blocked operation with a provenance-carrying
:class:`~repro.mpilite.router.WorldAbortedError` instead of letting
survivors run out their timeouts.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.mpilite.comm import CollectiveState, Comm
from repro.mpilite.router import Router
from repro.util import check_positive_int

__all__ = ["run_spmd", "open_world", "World", "PerRank"]


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
        recorder: Any = None,
    ) -> None:
        nranks = check_positive_int(nranks, "nranks")
        self.router = Router(nranks)
        self.collectives = CollectiveState(nranks, timeout=recv_timeout)
        if recorder is not None:
            self.router.observer = recorder
            self.collectives.observer = recorder
        self.recorder = recorder
        self.comms = [
            Comm(r, self.router, self.collectives, default_timeout=recv_timeout,
                 recorder=recorder)
            for r in range(nranks)
        ]

    @property
    def nranks(self) -> int:
        """World size."""
        return self.router.nranks

    def abort(self, reason: str) -> None:
        """Tear the world down: every blocked or future operation raises
        :class:`~repro.mpilite.router.WorldAbortedError` naming *reason*
        plus its own rank/peer/tag."""
        self.router.abort(reason)
        self.collectives.abort(reason)


def open_world(
    nranks: int,
    *,
    recv_timeout: float | None = None,
    recorder: Any = None,
) -> World:
    """Build a persistent mpilite :class:`World` (see class docs)."""
    return World(nranks, recv_timeout=recv_timeout, recorder=recorder)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    recv_timeout: float | None = None,
    recorder: Any = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on *nranks* ranks; return results.

    Per-rank positional arguments may be supplied by passing a list/tuple
    whose length equals *nranks* wrapped in :class:`PerRank`.

    ``recv_timeout`` is the world's default blocking-receive (and
    collective) timeout, handed to every rank's communicator so tests can
    shrink the safety net in one place.  ``recorder`` attaches a
    :class:`repro.check.CommRecorder` (or a compatible observer) to the
    router, the collective state and every communicator — the opt-in
    dynamic correctness analyzer; pass ``None`` (the default) for the
    uninstrumented fast path.

    A rank whose ``fn`` raises aborts the world, so peers blocked on it
    fail at once, and the ``RuntimeError`` raised here names that rank
    and chains its exception — the first failure, not its casualties.
    """
    nranks = check_positive_int(nranks, "nranks")
    world = World(nranks, recv_timeout=recv_timeout, recorder=recorder)
    results: list[Any] = [None] * nranks
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
            if recorder is not None:
                recorder.on_rank_finished(rank)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"mpilite-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    alive = [t for t in threads if t.is_alive()]
    if alive:
        raise TimeoutError(
            f"{len(alive)} rank(s) did not finish within {timeout} s "
            f"(likely an mpilite deadlock): {[t.name for t in alive]}"
        )
    if errors:
        rank, exc = errors[0]  # the first failure in time; the rest are its casualties
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results


class PerRank:
    """Marks an argument of :func:`run_spmd` as per-rank (one value each)."""

    def __init__(self, values: list[Any]) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)
