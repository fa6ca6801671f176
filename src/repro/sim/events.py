"""Event primitives for the discrete-event engine.

An :class:`Event` is a callback bound to a simulation time.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: first by explicit priority, then by
scheduling order.  Determinism matters here — the power-profile benchmarks
diff their output against golden series, so two runs of the same scenario
must produce byte-identical traces.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

# Priorities for simultaneous events.  Lower fires first.
PRIORITY_SUPPLY = 0
"""Supply/rail bookkeeping runs before loads see the new state."""

PRIORITY_NORMAL = 10
"""Default priority for component behaviour."""

PRIORITY_MEASURE = 20
"""Probes and recorders run last so they observe the settled state."""


class Event:
    """A scheduled callback.

    Instances are ordered by ``(time, priority, sequence)``; ``callback``
    and the bookkeeping fields are excluded from comparison.

    This is the engine's heap entry, and a node simulation allocates one
    per event — millions over a long run — so it is deliberately
    allocation-lean: ``__slots__`` instead of a dict, and a hand-written
    ``__lt__`` that compares fields directly instead of building
    comparison tuples on every heap sift (the profiler's former top hit).
    """

    __slots__ = (
        "time", "priority", "sequence", "callback", "name",
        "cancelled", "fired", "on_cancel",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        name: str = "",
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.fired = False
        self.on_cancel = on_cancel

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time == other.time
            and self.priority == other.priority
            and self.sequence == other.sequence
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(t={self.time}, prio={self.priority}, "
            f"seq={self.sequence}, name={self.name!r})"
        )

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped.

        Cancellation is O(1); the dead entry stays in the heap until its
        time comes and is then discarded.  Cancelling an event that has
        already fired (or was already cancelled) is a no-op, so the
        engine's live-event accounting stays exact.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()


@dataclasses.dataclass
class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`.

    Keeps the underlying event private so callers can only cancel, not
    mutate, a pending event.
    """

    _event: Event

    @property
    def time(self) -> float:
        """Absolute simulation time the event will fire at."""
        return self._event.time

    @property
    def name(self) -> str:
        """Debug label given at scheduling time."""
        return self._event.name

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self._event.cancelled and not self._event.fired

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._event.cancel()

