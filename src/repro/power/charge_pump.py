"""Regulated charge-pump model (TI TPS60313 class).

The PicoCube's COTS microcontroller/sensor supply is a TPS60313: a
switched-capacitor doubler/1.5x pump with a regulated output and a special
low-current "snooze" mode that makes it usable in an always-on 6 µW system
(paper §4.3).  The model captures what matters at system level:

* gain hopping — the pump picks the smallest gain ``k`` from its available
  set such that ``k * v_in`` exceeds the regulated output (plus headroom),
  because efficiency is bounded by ``v_out / (k * v_in)``;
* linear-like regulation loss — charge not used by the output is burned,
  so input current is ``k * i_out`` regardless of how far ``k * v_in``
  overshoots;
* quiescent current — normal vs. snooze mode, the dominant term at the
  PicoCube's microwatt loads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigurationError, ElectricalError
from .base import Converter, OperatingPoint, VoltageRange


class RegulatedChargePump(Converter):
    """A gain-hopping regulated charge pump.

    Parameters
    ----------
    name:
        Audit label.
    v_out:
        Regulated output voltage.
    gains:
        Available conversion gains, e.g. ``(1.5, 2.0)`` for the TPS60313.
    i_quiescent:
        No-load input current in normal mode, amperes.
    i_snooze:
        No-load input current in snooze (low-power) mode, amperes.
    snooze_load_threshold:
        Largest load current the snooze mode can carry; above it the pump
        runs in normal mode (and pays ``i_quiescent``).
    input_range:
        Allowed input voltage window.
    headroom:
        Required excess of ``k * v_in`` over ``v_out`` for regulation.
    """

    def __init__(
        self,
        name: str,
        v_out: float,
        gains: Sequence[float] = (1.5, 2.0),
        i_quiescent: float = 30e-6,
        i_snooze: float = 1.0e-6,
        snooze_load_threshold: float = 2e-3,
        input_range: Optional[VoltageRange] = None,
        headroom: float = 0.05,
    ) -> None:
        super().__init__(name)
        if v_out <= 0.0:
            raise ConfigurationError(f"{name}: v_out must be positive")
        if not gains:
            raise ConfigurationError(f"{name}: need at least one gain")
        if any(g <= 0.0 for g in gains):
            raise ConfigurationError(f"{name}: gains must be positive")
        if i_snooze > i_quiescent:
            raise ConfigurationError(
                f"{name}: snooze current {i_snooze} exceeds normal {i_quiescent}"
            )
        self.v_out = v_out
        self.gains = tuple(sorted(gains))
        self.i_quiescent = i_quiescent
        self.i_snooze = i_snooze
        self.snooze_load_threshold = snooze_load_threshold
        self.input_range = input_range or VoltageRange(0.9, 1.8, owner=name)
        self.headroom = headroom

    def select_gain(self, v_in: float) -> float:
        """Smallest available gain that can regulate ``v_out`` from ``v_in``."""
        for gain in self.gains:
            if gain * v_in >= self.v_out + self.headroom:
                return gain
        raise ElectricalError(
            f"{self.name}: cannot make {self.v_out} V from {v_in} V with "
            f"gains {self.gains}"
        )

    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        self._require_positive_load(i_out)
        if not self.enabled:
            return OperatingPoint(v_in=v_in, v_out=0.0, i_in=0.0, i_out=0.0)
        self.input_range.check(v_in)
        gain = self.select_gain(v_in)
        snoozing = i_out <= self.snooze_load_threshold
        i_house = self.i_snooze if snoozing else self.i_quiescent
        i_in = gain * i_out + i_house
        p_regulation = (gain * v_in - self.v_out) * i_out
        return OperatingPoint(
            v_in=v_in,
            v_out=self.v_out,
            i_in=i_in,
            i_out=i_out,
            losses={
                "regulation": p_regulation,
                "quiescent": v_in * i_house,
            },
        )
