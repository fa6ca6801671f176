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

A resume that is already the next event runs in the same callback
(:meth:`Engine._resume_after`); any other goes through the event heap.
"""

from __future__ import annotations

from typing import Generator, Union

from ..errors import SimulationError
from .engine import Engine

_INF = float("inf")

ProcessBody = Generator[Union[float, int], None, None]


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
        engine = self._engine
        body = self._body
        while not self.finished:
            try:
                yielded = next(body)
            except StopIteration:
                self.finished = True
                return
            if not isinstance(yielded, (int, float)):
                self.finished = True
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported value {yielded!r}"
                )
            if not 0.0 <= yielded < _INF:
                self.finished = True
                problem = "negative" if yielded < 0 else "non-finite"
                raise SimulationError(
                    f"process {self.name!r} yielded {problem} delay {yielded}"
                )
            if not engine._resume_after(float(yielded), self._resume, self.name):
                return


def spawn(
    engine: Engine,
    body: ProcessBody,
    name: str = "process",
    delay: float = 0.0,
) -> Process:
    """Create and start a :class:`Process` in one call."""
    return Process(engine, body, name=name).start(delay)
