"""Multi-channel power/current recorder.

The recorder is the simulation's measurement bench: every component that
draws or sources power owns a named channel, and the recorder provides the
aggregates the paper reports — per-component energy, total average power,
and the Fig 6 style profile of one "on" cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .engine import Engine
from .trace import StepTrace, sum_traces


class PowerRecorder:
    """Named step-trace channels tied to an engine's clock."""

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._channels: Dict[str, StepTrace] = {}

    # -- channel management --------------------------------------------------

    def channel(self, name: str) -> StepTrace:
        """Get (creating if needed) the trace for ``name``."""
        trace = self._channels.get(name)
        if trace is None:
            trace = StepTrace(name=name, initial=0.0, start_time=self._engine.now)
            self._channels[name] = trace
        return trace

    def channel_names(self) -> List[str]:
        """All channel names, sorted for deterministic reporting."""
        return sorted(self._channels)

    def has_channel(self, name: str) -> bool:
        """True if ``name`` has been recorded to."""
        return name in self._channels

    def restore_channels(self, traces: Dict[str, StepTrace]) -> None:
        """Replace the channel set wholesale (checkpoint restore).

        Existing channels are dropped; the recorder adopts ``traces`` as
        its complete history.  Only :mod:`repro.sim.checkpoint` should
        call this — on a live recorder it rewrites the measured past.
        """
        self._channels = dict(traces)

    # -- recording -------------------------------------------------------------

    def record(self, name: str, watts: float) -> None:
        """Set channel ``name`` to ``watts`` at the current sim time."""
        trace = self._channels.get(name)
        if trace is None:
            trace = self.channel(name)
        trace.set(self._engine.now, watts)

    # -- aggregates --------------------------------------------------------------

    def energy(
        self, name: str, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Energy (J) consumed on one channel over ``[start, end]``.

        Channels are created lazily at first record and draw 0 W before
        that, so the window is clamped to the channel's recorded span: the
        portion of ``[start, end]`` before the first record contributes
        zero energy by definition, not by silent truncation.
        """
        if name not in self._channels:
            raise SimulationError(f"no channel named {name!r}")
        trace = self._channels[name]
        lo = trace.start_time if start is None else float(start)
        hi = self._engine.now if end is None else float(end)
        if hi < lo:
            raise SimulationError(f"energy bounds reversed: [{lo}, {hi}]")
        lo = max(lo, trace.start_time)
        if hi <= lo:
            return 0.0
        return trace.integral(lo, hi)

    def total_energy(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Energy (J) summed over all channels."""
        return sum(self.energy(name, start, end) for name in self._channels)

    def average_power(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Average total power (W) over ``[start, end]``.

        Defaults to the full simulated span; this is the number compared
        against the paper's 6 µW.
        """
        if start is None:
            start = min(t.start_time for t in self._channels.values())
        if end is None:
            end = self._engine.now
        if end <= start:
            raise SimulationError(
                f"average_power needs a positive span [{start}, {end}]")
        return self.total_energy(start, end) / (end - start)

    def energy_breakdown(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Per-channel energy (J), sorted descending — the audit table."""
        items = [(name, self.energy(name, start, end)) for name in self._channels]
        items.sort(key=lambda pair: (-pair[1], pair[0]))
        return dict(items)

    def total_trace(self) -> StepTrace:
        """Pointwise-summed total power trace across all channels."""
        if not self._channels:
            raise SimulationError("no channels recorded")
        return sum_traces(
            [self._channels[name] for name in self.channel_names()], name="total"
        )

    def profile(
        self,
        start: float,
        end: float,
        channels: Optional[Sequence[str]] = None,
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Event-aligned profile of ``[start, end]`` for plotting/printing.

        Returns a list of ``(time, {channel: watts})`` rows, one row per
        breakpoint of any selected channel inside the window, plus a row at
        ``start``.  This is the data behind the Fig 6 regeneration.
        """
        names = list(channels) if channels is not None else self.channel_names()
        times = {start}
        for name in names:
            trace = self._channels.get(name)
            if trace is None:
                continue
            for bp_time, _ in trace.breakpoints():
                if start <= bp_time <= end:
                    times.add(bp_time)
        rows = []
        for time in sorted(times):
            row = {}
            for name in names:
                trace = self._channels.get(name)
                if trace is None or time < trace.start_time:
                    row[name] = 0.0
                else:
                    row[name] = trace.value_at(time)
            rows.append((time, row))
        return rows
