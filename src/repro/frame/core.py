"""Generator-based discrete-event simulator.

Processes are Python generators that ``yield`` :class:`SimEvent` objects
(typically timeouts or completions of other activities) and are resumed
with the event's value.  The kernel is a plain time-ordered callback
queue — small, deterministic, and fast enough to simulate hundreds of
MPI ranks exchanging thousands of messages.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1.5)
...     return "done at %.1f" % sim.now
>>> p = sim.spawn(hello(sim))
>>> sim.run()
>>> p.result
'done at 1.5'
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable

from repro.frame.events import SimEvent, all_of

__all__ = ["Simulator", "Process"]


class Process:
    """A running simulation process.

    ``done`` fires with the generator's return value when it finishes;
    ``result`` holds that value afterwards.
    """

    __slots__ = ("done", "_gen", "_sim", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = SimEvent()

    @property
    def result(self) -> Any:
        """The generator's return value (None until finished)."""
        return self.done.value

    def _step(self, send_value: Any) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if not isinstance(target, SimEvent):
            raise TypeError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "processes must yield SimEvent objects"
            )
        target.add_callback(self._step)


class Simulator:
    """The event loop: a heap of timestamped callbacks.

    Determinism: callbacks scheduled for the same instant run in
    scheduling order (a monotonically increasing sequence number breaks
    ties), so repeated runs produce identical traces.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._step_count = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* after *delay* simulated seconds."""
        if not 0 <= delay < math.inf:
            raise ValueError(
                f"cannot schedule into the past or never: delay must be finite and >= 0, "
                f"got {delay}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that fires after *delay* seconds."""
        ev = SimEvent()
        self.schedule(delay, lambda: ev.succeed(value))
        return ev

    def event(self) -> SimEvent:
        """A fresh untriggered event."""
        return SimEvent()

    def all_of(self, events: Iterable[SimEvent]) -> SimEvent:
        """Composite event: fires when every input fired."""
        return all_of(events)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process at the current time."""
        proc = Process(self, gen, name)
        # first step happens via the queue so spawn order == run order
        self.schedule(0.0, lambda: proc._step(None))
        return proc

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, *, max_steps: int = 50_000_000) -> None:
        """Process events until the queue drains (or *until* is reached).

        ``max_steps`` guards against runaway event loops (a protocol bug
        producing self-rescheduling callbacks).
        """
        while self._queue:
            t, _seq, fn = self._queue[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            self.now = t
            self._step_count += 1
            if self._step_count > max_steps:
                raise RuntimeError(f"simulation exceeded {max_steps} steps — likely a livelock")
            fn()
