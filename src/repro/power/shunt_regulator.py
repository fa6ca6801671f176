"""Shunt regulator model for the radio digital supply.

"The radio digital section demands so little power that a controller I/O
signal fed through a shunt regulator is sufficient" (paper §4.3).  A shunt
regulator is a series resistance from the source (here, an MSP430 GPIO pin
at the microcontroller rail voltage) with a shunt element that bleeds
whatever current the load does not take, clamping the output:

* output voltage is constant at ``v_out`` as long as the series resistor
  can supply more than the load draws;
* input current is *constant* at ``(v_in - v_out) / r_series`` — the shunt
  burns the slack — which is why the PicoCube switches the 1.0 V rail off
  between transmissions and why its rising edge is clean (no inrush, no
  overshoot; paper §4.5).
"""

from __future__ import annotations

from ..errors import ConfigurationError, ElectricalError
from .base import Converter, OperatingPoint


class ShuntRegulator(Converter):
    """A series-resistor + shunt-clamp regulator.

    Parameters
    ----------
    v_out:
        Clamped output voltage.
    r_series:
        Series resistance from the driving pin, ohms.
    i_bias_min:
        Minimum current the shunt element needs to hold regulation,
        amperes.
    """

    def __init__(
        self,
        name: str,
        v_out: float,
        r_series: float,
        i_bias_min: float = 10e-6,
    ) -> None:
        super().__init__(name)
        if v_out <= 0.0 or r_series <= 0.0:
            raise ConfigurationError(f"{name}: v_out and r_series must be positive")
        if i_bias_min < 0.0:
            raise ConfigurationError(f"{name}: i_bias_min must be >= 0")
        self.v_out = v_out
        self.r_series = r_series
        self.i_bias_min = i_bias_min

    def supply_current(self, v_in: float) -> float:
        """Total current through the series resistor (load + shunt)."""
        return (v_in - self.v_out) / self.r_series

    def max_load_current(self, v_in: float) -> float:
        """Largest load the clamp can support while keeping its bias."""
        return max(self.supply_current(v_in) - self.i_bias_min, 0.0)

    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        self._require_positive_load(i_out)
        if not self.enabled:
            return OperatingPoint(v_in=v_in, v_out=0.0, i_in=0.0, i_out=0.0)
        if v_in <= self.v_out:
            raise ElectricalError(
                f"{self.name}: input {v_in:.3f} V must exceed clamp "
                f"{self.v_out:.3f} V"
            )
        i_supply = self.supply_current(v_in)
        i_shunt = i_supply - i_out
        if i_shunt < self.i_bias_min:
            raise ElectricalError(
                f"{self.name}: load {i_out:.4g} A starves the shunt "
                f"(supply {i_supply:.4g} A, bias floor {self.i_bias_min:.4g} A)"
            )
        return OperatingPoint(
            v_in=v_in,
            v_out=self.v_out,
            i_in=i_supply,
            i_out=i_out,
            losses={
                "series-resistor": (v_in - self.v_out) * i_supply,
                "shunt-bleed": self.v_out * i_shunt,
            },
        )
