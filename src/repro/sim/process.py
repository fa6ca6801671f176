"""Generator-based processes on top of the event engine.

A process is a Python generator that yields the number of seconds it wants
to sleep; the engine resumes it after that delay.  This gives sequential
code for inherently sequential behaviour — the sample/format/transmit cycle
reads top-to-bottom instead of being shredded into a dozen callbacks::

    def on_cycle(node):
        node.sensor.power_on()
        yield 1.5e-3            # sensor settling
        reading = node.sensor.sample()
        yield 0.5e-3            # ADC + formatting
        node.radio.transmit(packet)
        ...

Processes also support waiting on :class:`Signal` objects, the engine-level
analogue of an interrupt line.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Union

from ..errors import SimulationError
from .engine import Engine
from .events import PRIORITY_NORMAL

_INF = float("inf")

Yieldable = Union[float, int, "Signal"]
ProcessBody = Generator[Yieldable, None, None]


class Signal:
    """A waitable one-shot broadcast, like an interrupt line.

    Processes yield a Signal to park until someone calls :meth:`fire`.
    Each ``fire`` wakes every currently-waiting process exactly once.
    """

    def __init__(self, engine: Engine, name: str = "signal") -> None:
        self._engine = engine
        self.name = name
        self._waiters: List[Callable[[], None]] = []
        self.fire_count = 0

    def fire(self) -> None:
        """Wake all waiting processes at the current simulation instant."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            # Zero-delay schedule keeps resumption ordering deterministic
            # and avoids re-entrant generator resumes from inside fire().
            self._engine.schedule(0.0, resume, name=f"{self.name}.resume")

    def _add_waiter(self, resume: Callable[[], None]) -> None:
        self._waiters.append(resume)

    @property
    def waiter_count(self) -> int:
        """Number of processes currently parked on this signal."""
        return len(self._waiters)


class Process:
    """Drives a generator body through the engine."""

    def __init__(self, engine: Engine, body: ProcessBody, name: str = "process"):
        self._engine = engine
        self._body = body
        self.name = name
        self.finished = False
        self._started = False

    def start(self, delay: float = 0.0) -> "Process":
        """Schedule the first resume of the body after ``delay`` seconds."""
        if self._started:
            raise SimulationError(f"process {self.name!r} already started")
        self._started = True
        self._engine.schedule(delay, self._resume, name=f"{self.name}.start")
        return self

    def cancel(self) -> None:
        """Abandon the body: pending resumes become no-ops (idempotent).

        The generator is not closed eagerly — it may be the frame that is
        executing right now (a fault or brownout aborting its own cycle);
        it simply never gets resumed again after its next yield.
        """
        self.finished = True

    def _resume(self) -> None:
        if self.finished:
            return
        try:
            yielded = next(self._body)
        except StopIteration:
            self.finished = True
            return
        if isinstance(yielded, (int, float)):
            if not 0.0 <= yielded < _INF:
                self.finished = True
                problem = "negative" if yielded < 0 else "non-finite"
                raise SimulationError(
                    f"process {self.name!r} yielded {problem} delay {yielded}"
                )
            # Resumes are never cancelled, so they skip schedule()'s
            # EventHandle; the event itself is exactly the one it makes.
            engine = self._engine
            engine._push(
                engine.now + float(yielded), self._resume, self.name,
                PRIORITY_NORMAL,
            )
        elif isinstance(yielded, Signal):
            yielded._add_waiter(self._resume)
        else:
            self.finished = True
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )


def spawn(
    engine: Engine,
    body: ProcessBody,
    name: str = "process",
    delay: float = 0.0,
) -> Process:
    """Create and start a :class:`Process` in one call."""
    return Process(engine, body, name=name).start(delay)
