"""Harvester interface: AC sources feeding the rectifier.

"The Cube requires an AC source that meets specifications determined by
the storage and management blocks, but is otherwise source agnostic"
(paper §4.4).  Concretely, a harvester here is anything that can produce a
sampled open-circuit voltage waveform with a source resistance; the
rectifier models in :mod:`repro.power.rectifier` integrate charge out of
that waveform into the battery.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

import numpy as np

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class SourceWaveform:
    """A sampled open-circuit voltage waveform with a Thevenin resistance."""

    t: np.ndarray
    v_oc: np.ndarray
    r_source: float

    def __post_init__(self) -> None:
        if self.t.shape != self.v_oc.shape or self.t.ndim != 1:
            raise ConfigurationError("waveform arrays must be 1-D, same shape")
        if self.r_source <= 0.0:
            raise ConfigurationError("r_source must be positive")

    @property
    def duration(self) -> float:
        """Waveform span in seconds."""
        return float(self.t[-1] - self.t[0])

    @property
    def peak_voltage(self) -> float:
        """Largest |v_oc| in the waveform, volts."""
        return float(np.max(np.abs(self.v_oc)))

    def available_power(self, v_dc: float) -> float:
        """Average power an ideal rectifier would extract into ``v_dc``."""
        from ..power.rectifier import IdealRectifier

        result = IdealRectifier().rectify(self.t, self.v_oc, self.r_source, v_dc)
        return result.power_out


class Harvester(abc.ABC):
    """An AC energy source with a characteristic periodic waveform."""

    def __init__(self, name: str, r_source: float) -> None:
        if r_source <= 0.0:
            raise ConfigurationError(f"{name}: r_source must be positive")
        self.name = name
        self.r_source = r_source

    @abc.abstractmethod
    def waveform(self, duration: float, dt: float = 1e-5) -> SourceWaveform:
        """Sample the open-circuit output over ``duration`` seconds."""

    def average_power_into(
        self, v_dc: float, duration: Optional[float] = None
    ) -> float:
        """Average power an ideal rectifier extracts into a DC sink.

        ``duration`` defaults to a source-appropriate characteristic span
        (several periods); subclasses override
        :meth:`characteristic_duration` to set it.
        """
        span = duration if duration is not None else self.characteristic_duration()
        return self.waveform(span).available_power(v_dc)

    def characteristic_duration(self) -> float:
        """A span long enough to average the source's periodicity."""
        return 1.0

    def _time_base(self, duration: float, dt: float) -> np.ndarray:
        if duration <= 0.0 or dt <= 0.0:
            raise ConfigurationError(
                f"{self.name}: duration and dt must be positive"
            )
        samples = int(round(duration / dt)) + 1
        if samples < 2:
            raise ConfigurationError(f"{self.name}: duration shorter than dt")
        return np.linspace(0.0, duration, samples)
