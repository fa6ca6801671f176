"""Fault schedules: deterministic, serialisable collections of faults.

A :class:`FaultSchedule` is an immutable, time-sorted tuple of
:mod:`~repro.faults.events` instances.  Schedules are data, not
behaviour — they can be built by hand for scenario tests, round-tripped
through plain dicts for configuration files, or drawn from a seeded RNG
by :func:`random_schedule` for chaos campaigns.  The same
``(seed, parameters)`` always yields the same schedule, which is what
lets the chaos Monte Carlo stay bit-identical across worker counts.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Type

from ..errors import ConfigurationError
from .events import (
    ChannelNoiseBurst,
    ConverterDegradation,
    EsrDrift,
    FaultEvent,
    HarvesterDropout,
    SelfDischargeSpike,
    SpuriousReset,
)

EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    "harvester-dropout": HarvesterDropout,
    "self-discharge-spike": SelfDischargeSpike,
    "esr-drift": EsrDrift,
    "converter-degradation": ConverterDegradation,
    "channel-noise": ChannelNoiseBurst,
    "spurious-reset": SpuriousReset,
}
"""Serialisation names, one per event class (the ``kind`` dict key)."""

_KIND_OF = {cls: kind for kind, cls in EVENT_KINDS.items()}


class FaultSchedule:
    """An immutable collection of fault events, sorted by start time."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        events = list(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"schedule entries must be FaultEvents, got "
                    f"{type(event).__name__}"
                )
        events.sort(key=lambda e: (e.start_s, type(e).__name__))
        self.events: Tuple[FaultEvent, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSchedule({len(self.events)} events)"

    def of_type(self, cls: Type[FaultEvent]) -> List[FaultEvent]:
        """Events of one fault class, in start order."""
        return [e for e in self.events if isinstance(e, cls)]

    def windows(self, cls: Type[FaultEvent]) -> List[Tuple[float, float]]:
        """``(start, end)`` windows of one fault class."""
        return [(e.start_s, e.end_s) for e in self.of_type(cls)]

    def end_time(self) -> float:
        """Instant the last fault clears (0.0 for an empty schedule)."""
        return max((e.end_s for e in self.events), default=0.0)

    # -- serialisation -----------------------------------------------------

    def to_dicts(self) -> List[dict]:
        """Plain-dict form (``kind`` plus the event's fields)."""
        rows = []
        for event in self.events:
            row = {"kind": _KIND_OF[type(event)]}
            for field in type(event).__dataclass_fields__:
                row[field] = getattr(event, field)
            rows.append(row)
        return rows

    @staticmethod
    def from_dicts(rows: Sequence[dict]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dicts` output."""
        events = []
        for row in rows:
            row = dict(row)
            kind = row.pop("kind", None)
            cls = EVENT_KINDS.get(kind)
            if cls is None:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
            events.append(cls(**row))
        return FaultSchedule(events)


def random_schedule(
    seed: int,
    duration_s: float,
    *,
    dropouts: int = 2,
    dropout_span_s: Tuple[float, float] = (600.0, 3600.0),
    dropout_derating: Tuple[float, float] = (0.0, 0.3),
    discharge_spikes: int = 1,
    spike_multiplier: Tuple[float, float] = (10.0, 80.0),
    esr_drifts: int = 1,
    esr_multiplier: Tuple[float, float] = (1.5, 4.0),
    degradations: int = 1,
    degradation_loss: Tuple[float, float] = (1.1, 1.6),
    noise_bursts: int = 2,
    noise_flip_probability: Tuple[float, float] = (0.002, 0.05),
    resets: int = 1,
) -> FaultSchedule:
    """Draw a seeded fault storm over ``[0, duration_s]``.

    Counts are exact (not Poisson draws) and every parameter is drawn
    from one ``random.Random(seed)`` in a fixed order, so the schedule is
    a pure function of its arguments — the determinism contract the
    chaos campaign leans on.  Windows may overlap; the injector composes
    overlapping severities multiplicatively.
    """
    if not (math.isfinite(duration_s) and duration_s > 0.0):
        raise ConfigurationError(
            f"duration_s must be finite and > 0, got {duration_s!r}"
        )
    rng = random.Random(seed)
    events: List[FaultEvent] = []

    def window(span: Tuple[float, float]) -> Tuple[float, float]:
        length = min(rng.uniform(*span), duration_s)
        start = rng.uniform(0.0, max(duration_s - length, 0.0))
        return start, length

    for _ in range(dropouts):
        start, length = window(dropout_span_s)
        events.append(HarvesterDropout(
            start, length, derating=rng.uniform(*dropout_derating)
        ))
    for _ in range(discharge_spikes):
        start, length = window((duration_s / 20.0, duration_s / 4.0))
        events.append(SelfDischargeSpike(
            start, length, multiplier=rng.uniform(*spike_multiplier)
        ))
    for _ in range(esr_drifts):
        start, length = window((duration_s / 10.0, duration_s / 2.0))
        events.append(EsrDrift(
            start, length, multiplier=rng.uniform(*esr_multiplier)
        ))
    for _ in range(degradations):
        start, length = window((duration_s / 10.0, duration_s / 2.0))
        events.append(ConverterDegradation(
            start, length, loss_factor=rng.uniform(*degradation_loss)
        ))
    for _ in range(noise_bursts):
        start, length = window((30.0, duration_s / 6.0))
        events.append(ChannelNoiseBurst(
            start, length,
            flip_probability=rng.uniform(*noise_flip_probability),
        ))
    for _ in range(resets):
        events.append(SpuriousReset(rng.uniform(0.0, duration_s)))
    return FaultSchedule(events)
