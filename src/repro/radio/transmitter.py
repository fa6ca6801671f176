"""FBAR-referenced OOK transmitter model (paper §4.6, ref [11]).

"The Cube uses a 0.8 dBm transmitter based on Film Bulk Acoustic Resonator
(FBAR) technology for RF carrier generation.  ...  Transmitter properties
include a 1.863 GHz channel, 46 % efficiency @ 1.2 mW transmit power,
650 mV supply, and direct modulation.  ...  With 50 % on-off keying (OOK),
power consumption is 1.35 mW at data rates up to 330 kbps."

Power accounting: during a '1' bit the oscillator + PA draw
``p_rf / efficiency`` from the 0.65 V rail; during a '0' bit they are
power-cycled off (that *is* the modulation).  The radio's digital section
(SPI interface, modulator timing) draws a small current from the 1.0 V
rail for the whole burst.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ConfigurationError
from ..units import dbm_to_watts, watts_to_dbm
from .fbar import FbarResonator


@dataclasses.dataclass(frozen=True)
class TransmitBudget:
    """Energy/time accounting for one packet transmission."""

    n_bits: int
    ones: int
    duration: float
    rf_on_time: float
    energy_rf_rail: float
    energy_digital_rail: float

    @property
    def energy_total(self) -> float:
        """Total energy for the burst, joules."""
        return self.energy_rf_rail + self.energy_digital_rail

    @property
    def energy_per_bit(self) -> float:
        """Average energy per transmitted bit, joules."""
        if self.n_bits == 0:
            return 0.0
        return self.energy_total / self.n_bits


class FbarTransmitter:
    """The PicoCube radio's transmit section."""

    def __init__(
        self,
        name: str = "fbar-tx",
        p_rf: float = dbm_to_watts(0.8),
        efficiency: float = 0.46,
        v_rf_rail: float = 0.65,
        v_digital_rail: float = 1.0,
        i_digital: float = 50e-6,
        max_bit_rate: float = 330e3,
        resonator: Optional[FbarResonator] = None,
    ) -> None:
        if p_rf <= 0.0:
            raise ConfigurationError(f"{name}: RF power must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigurationError(f"{name}: efficiency outside (0, 1]")
        if v_rf_rail <= 0.0 or v_digital_rail <= 0.0:
            raise ConfigurationError(f"{name}: rail voltages must be positive")
        if max_bit_rate <= 0.0:
            raise ConfigurationError(f"{name}: max bit rate must be positive")
        self.name = name
        self.p_rf = p_rf
        self.efficiency = efficiency
        self.v_rf_rail = v_rf_rail
        self.v_digital_rail = v_digital_rail
        self.i_digital = i_digital
        self.max_bit_rate = max_bit_rate
        self.resonator = resonator or FbarResonator()

    # -- static properties ---------------------------------------------------

    @property
    def carrier_hz(self) -> float:
        """Carrier frequency from the FBAR reference, Hz."""
        return self.resonator.f_series

    @property
    def p_dc_on(self) -> float:
        """DC power from the RF rail while the carrier is on, watts."""
        return self.p_rf / self.efficiency

    @property
    def i_rf_on(self) -> float:
        """RF-rail current while the carrier is on, amperes."""
        return self.p_dc_on / self.v_rf_rail

    def ook_rf_current(self, ones_fraction):
        """Mean RF-rail current over an OOK burst with this mark density,
        amperes (a float, or a float64 array it overwrites)."""
        ones_fraction *= self.p_dc_on
        ones_fraction /= self.v_rf_rail
        return ones_fraction

    @property
    def output_power_dbm(self) -> float:
        """Transmit power in dBm (paper: 0.8 dBm)."""
        return watts_to_dbm(self.p_rf)

    def average_power_ook(self, ones_fraction: float = 0.5) -> float:
        """Mean burst power at a given mark density (paper: 1.35 mW at 50 %)."""
        if not 0.0 <= ones_fraction <= 1.0:
            raise ConfigurationError(f"{self.name}: ones_fraction outside [0, 1]")
        return (
            self.p_dc_on * ones_fraction
            + self.v_digital_rail * self.i_digital
        )

    def startup_time(self) -> float:
        """Oscillator start-up before the first bit, seconds."""
        return self.resonator.startup_time()

    # -- per-packet accounting ------------------------------------------------------

    def transmit_budget(self, bits, bit_rate: float) -> TransmitBudget:
        """Time/energy budget for a bit sequence at a bit rate.

        ``bits`` is any iterable of 0/1.  Raises if the rate exceeds the
        transmitter's capability.
        """
        if bit_rate <= 0.0 or bit_rate > self.max_bit_rate:
            raise ConfigurationError(
                f"{self.name}: bit rate {bit_rate:.3g} outside "
                f"(0, {self.max_bit_rate:.3g}] bit/s"
            )
        bit_list = [int(b) for b in bits]
        if any(b not in (0, 1) for b in bit_list):
            raise ConfigurationError(f"{self.name}: bits must be 0 or 1")
        n_bits = len(bit_list)
        ones = sum(bit_list)
        bit_time = 1.0 / bit_rate
        duration = self.startup_time() + n_bits * bit_time
        rf_on = self.startup_time() + ones * bit_time
        return TransmitBudget(
            n_bits=n_bits,
            ones=ones,
            duration=duration,
            rf_on_time=rf_on,
            energy_rf_rail=self.p_dc_on * rf_on,
            energy_digital_rail=self.v_digital_rail * self.i_digital * duration,
        )
