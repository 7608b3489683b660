"""Process-based mpilite backend: SPMD over ``multiprocessing``.

The thread backend (:mod:`repro.mpilite.world`) shares one GIL, so the
numerics are serialised — fine for verification, useless for speed.
This backend launches one *process* per rank connected by a full mesh of
pipes, so on a real multicore host the distributed spMVM actually runs
in parallel (numpy kernels in separate interpreters).

Design
------
* point-to-point: each ordered rank pair owns a ``multiprocessing.Pipe``;
  sends pickle the payload into the pipe (buffered by the OS), receives
  match on ``(source, tag)`` with an out-of-order holding area, so the
  semantics match the thread backend's router exactly;
* collectives: implemented on top of point-to-point with rank-0 as the
  root of a gather/broadcast star — no shared state;
* the target function must be picklable (module-level), as usual with
  ``multiprocessing``.

The API intentionally mirrors :class:`repro.mpilite.comm.Comm`, so the
same SPMD functions run on either backend.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.util import check_positive_int

__all__ = ["ProcComm", "run_spmd_processes"]

_SENTINEL_TIMEOUT = 120.0


class ProcComm:
    """Communicator of one rank in a process-backed mpilite world.

    Mirrors the thread backend's :class:`~repro.mpilite.comm.Comm` API
    (the subset the solvers and the distributed spMVM use).
    """

    #: a process world is never observed (the checker lives in one process)
    observer = None

    def __init__(self, rank: int, size: int, conns: dict[int, Any]) -> None:
        self._rank = rank
        self._size = size
        self._conns = conns  # peer rank -> Connection
        self._pending: dict[int, deque[tuple[int, Any]]] = {p: deque() for p in conns}

    @property
    def rank(self) -> int:
        """This rank's id."""
        return self._rank

    @property
    def size(self) -> int:
        """World size."""
        return self._size

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send any picklable object (numpy arrays are copied by pickling)."""
        if dest == self._rank:
            raise ValueError("self-sends are not supported by the process backend")
        self._conns[dest].send((tag, obj))

    def recv(self, source: int, tag: int = 0, timeout: float = _SENTINEL_TIMEOUT) -> Any:
        """Blocking receive of the next message from *source* with *tag*.

        Out-of-order messages (same source, different tag) are parked and
        delivered to later receives.
        """
        queue = self._pending[source]
        for idx, (t, payload) in enumerate(queue):
            if t == tag:
                del queue[idx]
                return payload
        conn = self._conns[source]
        while True:
            if not conn.poll(timeout):
                raise TimeoutError(
                    f"rank {self._rank}: no message from {source} tag {tag} "
                    f"after {timeout} s"
                )
            t, payload = conn.recv()
            if t == tag:
                return payload
            queue.append((t, payload))

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-mode send (same as :meth:`send` for this backend)."""
        self.send(np.ascontiguousarray(buf), dest, tag)

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0,
             timeout: float = _SENTINEL_TIMEOUT) -> None:
        """Buffer-mode receive into a preallocated array."""
        data = self.recv(source, tag, timeout)
        if not isinstance(data, np.ndarray) or data.shape != buf.shape:
            raise ValueError(
                f"receive buffer shape {buf.shape} does not match message "
                f"{getattr(data, 'shape', type(data).__name__)}"
            )
        buf[...] = data

    def isend(self, obj: Any, dest: int, tag: int = 0):
        """Nonblocking send (buffered: completes immediately)."""
        from repro.mpilite.comm import Request

        self.send(obj, dest, tag)
        req = Request(lambda: None)
        req._done = True
        return req

    def irecv(self, source: int, tag: int = 0, timeout: float = _SENTINEL_TIMEOUT):
        """Nonblocking receive handle."""
        from repro.mpilite.comm import Request

        return Request(lambda: self.recv(source, tag, timeout))

    def waitall(self, requests: Sequence) -> list[Any]:
        """Complete a set of requests in order."""
        return [r.wait() for r in requests]

    # ------------------------------------------------------------------
    # collectives (rank-0-rooted star over point-to-point)
    # ------------------------------------------------------------------
    _COLL_TAG = -77

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self.allgather(None)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank, delivered everywhere in rank order."""
        if self._rank == 0:
            values = [value] + [
                self.recv(src, self._COLL_TAG) for src in range(1, self._size)
            ]
            for dst in range(1, self._size):
                self.send(values, dst, self._COLL_TAG)
            return values
        self.send(value, 0, self._COLL_TAG)
        return self.recv(0, self._COLL_TAG)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from *root*."""
        return self.allgather(obj if self._rank == root else None)[root]

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce over all ranks (default sum), result everywhere."""
        op = op or (lambda a, b: a + b)
        return functools.reduce(op, self.allgather(value))

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather to *root* (others get None)."""
        out = self.allgather(value)
        return out if self._rank == root else None

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-size sequence from *root*."""
        spread = self.bcast(list(values) if self._rank == root and values is not None else None, root)
        if spread is None or len(spread) != self._size:
            raise ValueError("scatter requires a length-size sequence on root")
        return spread[self._rank]


def _entry(fn, rank, size, conn_items, args, kwargs, result_q):  # pragma: no cover
    # runs in the child process
    from repro.mpilite.world import PerRank

    conns = dict(conn_items)
    comm = ProcComm(rank, size, conns)
    rank_args = tuple(a.values[rank] if isinstance(a, PerRank) else a for a in args)
    rank_kwargs = {k: (v.values[rank] if isinstance(v, PerRank) else v) for k, v in kwargs.items()}
    try:
        result_q.put((rank, "ok", fn(comm, *rank_args, **rank_kwargs)))
    except BaseException as exc:  # noqa: BLE001
        result_q.put((rank, "error", repr(exc)))


def run_spmd_processes(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on *nranks* OS processes.

    The process-backend twin of :func:`repro.mpilite.world.run_spmd`;
    ``fn`` and all arguments must be picklable.  Returns the per-rank
    results; raises on the first failing rank.
    """
    nranks = check_positive_int(nranks, "nranks")
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
    # full mesh of pipes
    conns: dict[int, dict[int, Any]] = {r: {} for r in range(nranks)}
    for a in range(nranks):
        for b in range(a + 1, nranks):
            ca, cb = ctx.Pipe(duplex=True)
            conns[a][b] = ca
            conns[b][a] = cb
    result_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_entry,
            args=(fn, r, nranks, tuple(conns[r].items()), args, kwargs, result_q),
            name=f"mpilite-proc-{r}",
            daemon=True,
        )
        for r in range(nranks)
    ]
    for p in procs:
        p.start()
    results: list[Any] = [None] * nranks
    errors: list[tuple[int, str]] = []
    received = 0
    try:
        while received < nranks:
            try:
                rank, status, payload = result_q.get(timeout=timeout)
            except Exception as exc:
                raise TimeoutError(
                    f"{nranks - received} rank process(es) did not report within "
                    f"{timeout} s (likely a deadlock)"
                ) from exc
            received += 1
            if status == "ok":
                results[rank] = payload
            else:
                errors.append((rank, payload))
    finally:
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
    if errors:
        rank, msg = min(errors, key=lambda e: e[0])
        raise RuntimeError(f"rank {rank} failed: {msg}")
    return results
