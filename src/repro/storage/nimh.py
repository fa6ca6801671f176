"""NiMH cell model — the PicoCube's chosen energy buffer.

"A NiMH battery was chosen for two reasons.  First, its discharge
characteristics provide a nominal 1.2 V that is stable until just prior to
full discharge, and 1.2 V is close to optimal for generating the required
supply voltages.  Second, NiMH can be trickle charged for an indefinite
period at one-tenth the capacity (C/10) without damage.  This eliminates
the need for complex charge control circuitry." (paper §4.4)

The model captures the flat discharge plateau (piecewise-linear OCV vs.
state of charge), state-dependent internal resistance, the C/10 continuous
overcharge tolerance (excess charge at full recombines to heat, tracked),
and NiMH's notorious self-discharge.

The formulas are module functions that :class:`NiMHCell` runs on floats
and the cohort fleet engine (:mod:`repro.net.cohort`) on float64 lane
arrays, bit-identically.  An argument updated with augmented assignment
is overwritten when it is an array (the cohort's scratch buffers).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from ..errors import StorageError
from ..units import DAY, mah_to_coulombs
from .base import EnergyStorage

# Default OCV curve: (state of charge, volts).  Flat 1.2-1.3 V plateau with
# a knee near empty and a rise approaching full — the shape that makes NiMH
# "stable until just prior to full discharge".
DEFAULT_OCV_CURVE: Tuple[Tuple[float, float], ...] = (
    (0.00, 0.90),
    (0.02, 1.00),
    (0.05, 1.10),
    (0.10, 1.17),
    (0.20, 1.21),
    (0.50, 1.25),
    (0.80, 1.28),
    (0.95, 1.32),
    (1.00, 1.40),
)


#: State of charge below which the electrolyte depletes and the internal
#: resistance climbs.
LOW_SOC = 0.2
#: Cell temperature of the self-discharge rating and the mid-charge
#: resistance, C; below it the electrolyte stiffens.
RATED_TEMPERATURE_C = 25.0
#: The interval the self-discharge rating refers to, seconds.
MONTH_S = 30.0 * DAY


def segment_ocv(soc, s0, v0, width, rise):
    """OCV on one curve segment: ``v0 + (soc - s0) / width * rise``.

    ``s0``/``v0`` are the segment's lower end, ``width``/``rise`` its
    soc and volt spans (scalars, or per-lane arrays).  ``soc`` is
    overwritten when it is an array.
    """
    soc -= s0
    soc /= width
    soc *= rise
    soc += v0
    return soc


def low_soc_factor(soc):
    """Resistance multiplier below :data:`LOW_SOC` (electrolyte depletion)."""
    return 1.0 + 4.0 * (LOW_SOC - soc) / LOW_SOC


def cold_factor(temperature_c):
    """Resistance multiplier below :data:`RATED_TEMPERATURE_C`."""
    return 1.0 + 0.02 * (RATED_TEMPERATURE_C - temperature_c)


def self_discharge_exponent(dt, acceleration):
    """Rated months an interval ``dt`` (s) amounts to at a rate multiplier:
    the exponent of the monthly retention.  ``dt`` is overwritten when it
    is an array.
    """
    dt *= acceleration
    dt /= MONTH_S
    return dt


def self_discharge_loss(keep, charge):
    """Coulombs ``charge`` loses when the fraction ``keep`` of it stays:
    ``charge * (1 - keep)``.  ``keep`` is overwritten when it is an array.
    """
    # 1 - keep in place: negation is exact and x - y is x + (-y), so
    # this is the subtraction's exact result, signed zero included.
    keep *= -1.0
    keep += 1.0
    keep *= charge
    return keep


class NiMHCell(EnergyStorage):
    """A small NiMH button cell (default: the PicoCube's 15 mAh cell).

    Parameters
    ----------
    capacity_mah:
        Rated capacity, milliamp-hours.
    mass_grams:
        Cell mass; the default gives ~220 J/g, the paper's number.
    r_internal:
        Mid-charge internal resistance, ohms (small cells are ohm-ish).
    self_discharge_per_month:
        Fraction of charge lost per 30 days at open circuit.
    ocv_curve:
        Piecewise-linear (soc, volts) points, ascending in soc.
    """

    def __init__(
        self,
        name: str = "nimh-15mah",
        capacity_mah: float = 15.0,
        mass_grams: float = 0.31,
        r_internal: float = 1.5,
        self_discharge_per_month: float = 0.25,
        ocv_curve: Sequence[Tuple[float, float]] = DEFAULT_OCV_CURVE,
    ) -> None:
        super().__init__(name, mah_to_coulombs(capacity_mah), mass_grams)
        if r_internal <= 0.0:
            raise StorageError(f"{name}: r_internal must be positive")
        if not 0.0 <= self_discharge_per_month < 1.0:
            raise StorageError(f"{name}: self-discharge fraction invalid")
        curve = tuple(ocv_curve)
        if len(curve) < 2 or curve[0][0] != 0.0 or curve[-1][0] != 1.0:
            raise StorageError(f"{name}: OCV curve must span soc 0..1")
        if any(b[0] <= a[0] for a, b in zip(curve, curve[1:])):
            raise StorageError(f"{name}: OCV curve soc values must ascend")
        self.capacity_mah = capacity_mah
        self.r_internal_mid = r_internal
        self.self_discharge_per_month = self_discharge_per_month
        # The fraction kept over one rated month at 25 C: the base
        # apply_self_discharge raises to a power.
        self.monthly_retention = 1.0 - self_discharge_per_month
        self.ocv_curve = curve
        # Per segment, what open_circuit_voltage needs from the curve:
        # (upper soc, lower soc, lower volts, soc width, volt rise).
        self._ocv_segments = tuple(
            (s1, s0, v0, s1 - s0, v1 - v0)
            for (s0, v0), (s1, v1) in zip(curve, curve[1:])
        )
        self.overcharge_heat_joules = 0.0
        self.temperature_c = 25.0
        # Fault-injection knobs (repro.faults): 1.0 means healthy.
        self._self_discharge_multiplier = 1.0
        self._esr_multiplier = 1.0

    # -- temperature ------------------------------------------------------------

    def set_temperature(self, celsius: float) -> None:
        """Set the cell temperature (tires span roughly -40..100 C).

        Two chemistry effects follow: self-discharge roughly doubles per
        10 C (Arrhenius), and the electrolyte stiffens in the cold,
        raising internal resistance.
        """
        if not -40.0 <= celsius <= 125.0:
            raise StorageError(
                f"{self.name}: temperature {celsius} C outside -40..125 C"
            )
        self.temperature_c = celsius

    def _self_discharge_acceleration(self) -> float:
        """Arrhenius-ish rate multiplier vs. the 25 C rating."""
        rate = 2.0 ** ((self.temperature_c - RATED_TEMPERATURE_C) / 10.0)
        return rate * self._self_discharge_multiplier

    # -- fault injection ---------------------------------------------------------

    def set_self_discharge_multiplier(self, multiplier: float) -> None:
        """Scale the self-discharge rate (fault injection: leaky cell).

        ``1.0`` is the healthy cell; a :class:`repro.faults.SelfDischargeSpike`
        raises it for a window, modelling a soft internal short or a cell
        soaked past its rating.
        """
        if not math.isfinite(multiplier):
            raise StorageError(
                f"{self.name}: self-discharge multiplier must be finite, "
                f"got {multiplier!r}"
            )
        if multiplier < 0.0:
            raise StorageError(
                f"{self.name}: self-discharge multiplier must be >= 0"
            )
        self._self_discharge_multiplier = multiplier

    def set_esr_multiplier(self, multiplier: float) -> None:
        """Scale the internal resistance (fault injection: ESR drift).

        ``1.0`` is the healthy cell; aged or dried-out cells sag harder
        under the radio burst, which is exactly what pushes a marginal
        node into brownout.
        """
        if not math.isfinite(multiplier):
            raise StorageError(
                f"{self.name}: ESR multiplier must be finite, got {multiplier!r}"
            )
        if multiplier <= 0.0:
            raise StorageError(f"{self.name}: ESR multiplier must be > 0")
        self._esr_multiplier = multiplier

    # -- electrical ----------------------------------------------------------

    def open_circuit_voltage(self) -> float:
        soc = self.soc
        for s1, s0, v0, width, rise in self._ocv_segments:
            if soc <= s1:
                return segment_ocv(soc, s0, v0, width, rise)
        return self.ocv_curve[-1][1]

    def internal_resistance(self) -> float:
        # Resistance climbs as the cell empties (electrolyte depletion)
        # and in the cold (electrolyte conductivity falls).
        soc = self.soc
        base = self.r_internal_mid
        if soc < LOW_SOC:
            base *= low_soc_factor(soc)
        temperature_c = self.temperature_c
        if temperature_c < RATED_TEMPERATURE_C:
            base *= cold_factor(temperature_c)
        return base * self._esr_multiplier

    def stored_energy(self) -> float:
        """Integrate OCV over the remaining charge (trapezoid on the curve)."""
        total = 0.0
        soc = self.soc
        curve = self.ocv_curve
        for (s0, v0), (s1, v1) in zip(curve, curve[1:]):
            if s0 >= soc:
                break
            s_hi = min(s1, soc)
            v_hi = v0 + (v1 - v0) * (s_hi - s0) / (s1 - s0)
            total += 0.5 * (v0 + v_hi) * (s_hi - s0) * self.capacity_coulombs
        return total

    # -- charging ------------------------------------------------------------------

    @property
    def trickle_current_limit(self) -> float:
        """The C/10 rate the cell tolerates indefinitely, amperes."""
        return self.capacity_coulombs / 10.0 / 3600.0

    def accept_charge(self, coulombs: float) -> float:
        """Push charge in; overcharge past full recombines to heat.

        Returns the charge actually stored.  Unlike :meth:`charge_by`,
        overcharge is not an error — that is the point of NiMH trickle
        charging — but it must respect the C/10 *rate*, which the caller
        (see :class:`repro.storage.charging.TrickleCharger`) enforces.
        """
        if coulombs < 0.0:
            raise StorageError(f"{self.name}: negative charge {coulombs}")
        stored = min(coulombs, self.capacity_coulombs - self._charge)
        overcharge = coulombs - stored
        self._charge += stored
        self.overcharge_heat_joules += overcharge * self.open_circuit_voltage()
        return stored

    def apply_self_discharge(self, dt_seconds: float) -> float:
        """Leak charge for a time interval; returns coulombs lost.

        Exponential decay calibrated to ``self_discharge_per_month`` at
        25 C, accelerated/retarded with temperature (x2 per 10 C).
        """
        if dt_seconds < 0.0:
            raise StorageError(f"{self.name}: negative interval {dt_seconds}")
        exponent = self_discharge_exponent(
            dt_seconds, self._self_discharge_acceleration())
        lost = self_discharge_loss(self.monthly_retention ** exponent,
                                   self._charge)
        self._charge -= lost
        return lost
