"""Typed fault events: the vocabulary of the hostile power environment.

The paper's node lives off a 120 Hz shaker, a leaky NiMH button cell and
converters whose quiescent draw dominates the budget — every one of which
can misbehave in the field.  Each event class below names one such
misbehaviour as a window ``[start_s, end_s)`` plus a severity parameter;
a :class:`~repro.faults.schedule.FaultSchedule` collects them and a
:class:`~repro.faults.injector.FaultInjector` applies them to a live
:class:`~repro.core.node.PicoCube` through the small injection API each
layer exposes (harvest derating, battery multipliers, converter
degradation, the packet filter, and spurious resets).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """Base fault: active over ``[start_s, start_s + duration_s)``."""

    start_s: float
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        self._require_finite("start_s", "duration_s")
        if self.start_s < 0.0:
            raise ConfigurationError(
                f"{type(self).__name__}: start_s must be >= 0, "
                f"got {self.start_s}"
            )
        if self.duration_s < 0.0:
            raise ConfigurationError(
                f"{type(self).__name__}: duration_s must be >= 0, "
                f"got {self.duration_s}"
            )

    def _require_finite(self, *fields: str) -> None:
        """Reject NaN and infinite values here, not mid-run."""
        for field in fields:
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{type(self).__name__}: {field} must be finite, "
                    f"got {value!r}"
                )

    @property
    def end_s(self) -> float:
        """Instant the fault clears."""
        return self.start_s + self.duration_s

    def active_at(self, time_s: float) -> bool:
        """True while the fault holds at ``time_s``."""
        return self.start_s <= time_s < self.end_s


@dataclasses.dataclass(frozen=True)
class HarvesterDropout(FaultEvent):
    """Harvester output collapses to ``derating`` of nominal.

    ``derating`` is the fraction of charging current that *remains*:
    ``0.0`` is a full dropout (the car parked, the shaker stopped),
    ``0.3`` a derated window (rough road, off-resonance vibration).
    Overlapping dropouts compose multiplicatively.
    """

    derating: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.derating <= 1.0:
            raise ConfigurationError(
                f"HarvesterDropout: derating must be in [0, 1], "
                f"got {self.derating}"
            )


@dataclasses.dataclass(frozen=True)
class SelfDischargeSpike(FaultEvent):
    """NiMH self-discharge runs ``multiplier`` times its rating.

    Models a soft internal short or a cell soaked past its temperature
    rating — the leakage mechanism the paper calls NiMH's notorious flaw.
    """

    multiplier: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite("multiplier")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"SelfDischargeSpike: multiplier must be >= 1, "
                f"got {self.multiplier}"
            )


@dataclasses.dataclass(frozen=True)
class EsrDrift(FaultEvent):
    """Battery internal resistance scaled by ``multiplier``.

    An aged or cold-soaked cell sags harder under the radio burst, which
    is exactly the load step that pushes a marginal node into brownout.
    """

    multiplier: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite("multiplier")
        if self.multiplier <= 0.0:
            raise ConfigurationError(
                f"EsrDrift: multiplier must be > 0, got {self.multiplier}"
            )


@dataclasses.dataclass(frozen=True)
class ConverterDegradation(FaultEvent):
    """Power-train conversion losses scaled by ``loss_factor``.

    With ``component=None`` the whole train degrades: every battery-side
    solve draws ``loss_factor`` times the healthy current while the rails
    deliver their nominal power; the overhead lands on the
    ``power-management`` channel the paper highlights.  Naming a rail-graph
    component (e.g. ``"tps60313"``, ``"ic-sc-3to2"``) ages that one stage
    instead — its solved input current scales, and anything upstream
    carries the extra load.
    """

    loss_factor: float = 1.25
    component: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite("loss_factor")
        if self.loss_factor < 1.0:
            raise ConfigurationError(
                f"ConverterDegradation: loss_factor must be >= 1, "
                f"got {self.loss_factor}"
            )
        if self.component is not None and not self.component:
            raise ConfigurationError(
                "ConverterDegradation: component must be None or a "
                "non-empty name"
            )


@dataclasses.dataclass(frozen=True)
class ChannelNoiseBurst(FaultEvent):
    """OOK channel noise flipping bits with ``flip_probability`` each.

    Packets transmitted inside the window get per-bit corruption draws
    from the injector's seeded RNG; any flipped bit diverts the frame to
    the node's ``packets_corrupted`` list (the CRC-8 catches it at the
    receiver — see the property tests).
    """

    flip_probability: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.flip_probability <= 1.0:
            raise ConfigurationError(
                f"ChannelNoiseBurst: flip_probability must be in (0, 1], "
                f"got {self.flip_probability}"
            )


@dataclasses.dataclass(frozen=True)
class SpuriousReset(FaultEvent):
    """A point fault: the MCU resets at ``start_s``.

    Aborts any in-flight sample cycle and restarts the sequence counter;
    the wake source keeps running, so sampling resumes on the next
    interrupt.  ``duration_s`` must stay zero.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s != 0.0:
            raise ConfigurationError(
                "SpuriousReset is instantaneous; duration_s must be 0"
            )
