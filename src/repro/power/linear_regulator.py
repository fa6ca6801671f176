"""Low-dropout linear regulator model (LT3020 class, and the IC post-reg).

The PicoCube uses an LT3020 LDO for the radio RF supply — "more demanding
in terms of current, noise, and voltage" (paper §4.3) — gated on both input
and output by solid-state switches to avoid quiescent losses between
transmissions.  The integrated power IC reuses a linear regulator as a
post-regulator that trims the 3:2 SC converter's ~0.8 V down to a clean
0.65 V and smooths the switching ripple (paper §7.1).

A linear regulator's physics is simple and unforgiving: input current
equals output current (plus ground-pin current), so efficiency can never
exceed ``v_out / v_in``.
"""

from __future__ import annotations

from ..errors import ConfigurationError, ElectricalError
from .base import Converter, OperatingPoint


class LinearRegulator(Converter):
    """An LDO with dropout, ground-pin current, and output-noise figure.

    Parameters
    ----------
    v_out:
        Regulated output voltage.
    dropout:
        Minimum ``v_in - v_out`` for regulation, volts.
    i_ground:
        Ground-pin (quiescent) current while regulating, amperes.
    i_shutdown:
        Input leakage when disabled, amperes.
    i_max:
        Output current limit, amperes.
    output_noise_rms:
        RMS output noise, volts — carried as metadata so rail consumers
        (the RF section wants a quiet 0.65 V) can check their requirement.
    psrr_db:
        Power-supply rejection ratio, dB — how much input ripple (e.g.
        from a preceding SC converter) is attenuated.
    """

    def __init__(
        self,
        name: str,
        v_out: float,
        dropout: float = 0.15,
        i_ground: float = 1.0e-6,
        i_shutdown: float = 0.0,
        i_max: float = 0.1,
        output_noise_rms: float = 100e-6,
        psrr_db: float = 60.0,
    ) -> None:
        super().__init__(name)
        if v_out <= 0.0:
            raise ConfigurationError(f"{name}: v_out must be positive")
        if dropout < 0.0 or i_ground < 0.0 or i_shutdown < 0.0:
            raise ConfigurationError(f"{name}: parameters must be non-negative")
        if i_max <= 0.0:
            raise ConfigurationError(f"{name}: i_max must be positive")
        self.v_out = v_out
        self.dropout = dropout
        self.i_ground = i_ground
        self.i_shutdown = i_shutdown
        self.i_max = i_max
        self.output_noise_rms = output_noise_rms
        self.psrr_db = psrr_db

    def minimum_input_voltage(self) -> float:
        """Lowest input voltage that still regulates."""
        return self.v_out + self.dropout

    def output_ripple(self, input_ripple: float) -> float:
        """Residual output ripple given input ripple, via PSRR."""
        return input_ripple * 10.0 ** (-self.psrr_db / 20.0)

    def solve(self, v_in: float, i_out: float) -> OperatingPoint:
        self._require_positive_load(i_out)
        if not self.enabled:
            return OperatingPoint(
                v_in=v_in,
                v_out=0.0,
                i_in=self.i_shutdown,
                i_out=0.0,
                losses={"shutdown-leakage": v_in * self.i_shutdown},
            )
        if v_in < self.minimum_input_voltage():
            raise ElectricalError(
                f"{self.name}: input {v_in:.3f} V below dropout limit "
                f"{self.minimum_input_voltage():.3f} V"
            )
        if i_out > self.i_max:
            raise ElectricalError(
                f"{self.name}: load {i_out:.4g} A exceeds limit {self.i_max:.4g} A"
            )
        i_in = i_out + self.i_ground
        p_pass = (v_in - self.v_out) * i_out
        return OperatingPoint(
            v_in=v_in,
            v_out=self.v_out,
            i_in=i_in,
            i_out=i_out,
            losses={
                "pass-device": p_pass,
                "ground-pin": v_in * self.i_ground,
            },
        )

    def off_state_current(self, v_in: float) -> float:
        return self.i_shutdown
