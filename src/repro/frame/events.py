"""Events and composite conditions for the simulation kernel.

A :class:`SimEvent` is a one-shot occurrence that processes can wait on.
It carries an optional value delivered to all waiters.  :func:`all_of`
builds a composite event that fires when every constituent has fired —
the building block for barriers and ``MPI_Waitall``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = ["SimEvent", "all_of"]


class SimEvent:
    """A one-shot event.

    Callbacks registered before the trigger run when :meth:`succeed` is
    called; callbacks registered afterwards run immediately.
    """

    __slots__ = ("_callbacks", "_triggered", "_value")

    def __init__(self) -> None:
        self._callbacks: list[Callable[[Any], None]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event fired with (None before the trigger)."""
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event, delivering *value* to all waiters.

        Firing twice is an error — events are one-shot by design so that
        protocol bugs surface instead of being silently absorbed.
        """
        if self._triggered:
            raise RuntimeError("SimEvent fired twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)
        return self

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run *cb(value)* when the event fires (immediately if it already has)."""
        if self._triggered:
            cb(self._value)
        else:
            self._callbacks.append(cb)


def all_of(events: Iterable[SimEvent]) -> SimEvent:
    """An event that fires (with the list of values) once all inputs fired."""
    events = list(events)
    combined = SimEvent()
    if not events:
        combined.succeed([])
        return combined
    remaining = [len(events)]

    def on_fire(_value: Any) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.succeed([e.value for e in events])

    for e in events:
        e.add_callback(on_fire)
    return combined
