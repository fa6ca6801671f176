"""Unit helpers and physical constants for the PicoCube simulation.

Everything inside the library is strict SI: volts, amperes, watts, joules,
seconds, hertz, farads, ohms, grams, metres.  Decibel quantities appear only
at the link-budget API surface, always with an explicit ``_db``/``_dbm``
suffix.  This module provides readable constructors so that call sites can
say ``micro(6)`` watts or ``milli(1.2)`` volts instead of sprinkling bare
``1e-6`` literals around, plus the handful of conversions (mAh, dBm, RPM)
that the datasheet-facing models need.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable

# ---------------------------------------------------------------------------
# Metric prefixes
# ---------------------------------------------------------------------------


def tera(value: float) -> float:
    """Scale ``value`` by 1e12."""
    return value * 1e12


def giga(value: float) -> float:
    """Scale ``value`` by 1e9."""
    return value * 1e9


def mega(value: float) -> float:
    """Scale ``value`` by 1e6."""
    return value * 1e6


def kilo(value: float) -> float:
    """Scale ``value`` by 1e3."""
    return value * 1e3


def milli(value: float) -> float:
    """Scale ``value`` by 1e-3."""
    return value * 1e-3


def micro(value: float) -> float:
    """Scale ``value`` by 1e-6."""
    return value * 1e-6


def nano(value: float) -> float:
    """Scale ``value`` by 1e-9."""
    return value * 1e-9


def pico(value: float) -> float:
    """Scale ``value`` by 1e-12."""
    return value * 1e-12


# ---------------------------------------------------------------------------
# Totals
# ---------------------------------------------------------------------------


def left_sum(values: Iterable) -> float:
    """``0 + v0 + v1 + ...``, added strictly left to right.

    What ``sum()`` computes up to Python 3.11.  From 3.12 on, ``sum()`` of
    floats is compensated (Neumaier), so its last bits depend on the
    interpreter; every total that reaches a recorded result folds through
    here instead.  Adds NumPy arrays elementwise, in the same order.
    """
    return functools.reduce(operator.add, values, 0)


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24.0 * HOUR
WEEK = 7.0 * DAY
YEAR = 365.25 * DAY


# ---------------------------------------------------------------------------
# Electrical conversions
# ---------------------------------------------------------------------------


def mah_to_coulombs(mah: float) -> float:
    """Convert a milliamp-hour charge rating to coulombs.

    1 mAh = 1e-3 A * 3600 s = 3.6 C.  The PicoCube battery is a 15 mAh NiMH
    cell, i.e. 54 C of charge.
    """
    return mah * 3.6


def coulombs_to_mah(coulombs: float) -> float:
    """Convert coulombs back to milliamp-hours."""
    return coulombs / 3.6


def watt_hours_to_joules(wh: float) -> float:
    """Convert watt-hours to joules (1 Wh = 3600 J)."""
    return wh * 3600.0


def joules_to_watt_hours(joules: float) -> float:
    """Convert joules to watt-hours."""
    return joules / 3600.0


# ---------------------------------------------------------------------------
# RF / decibel conversions
# ---------------------------------------------------------------------------


def dbm_to_watts(dbm: float) -> float:
    """Convert a power in dBm to watts.

    The paper's transmitter puts out 0.8 dBm (= 1.2 mW) and the received
    signal at one metre is about -60 dBm (= 1 nW).
    """
    return 1e-3 * 10.0 ** (dbm / 10.0)


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm.

    Raises :class:`ValueError` for non-positive power, which has no dB
    representation.
    """
    if watts <= 0.0:
        raise ValueError(f"cannot express non-positive power {watts} W in dBm")
    return 10.0 * math.log10(watts / 1e-3)


def db_to_ratio(db: float) -> float:
    """Convert a decibel power ratio to a linear ratio."""
    return 10.0 ** (db / 10.0)


def ratio_to_db(ratio: float) -> float:
    """Convert a linear power ratio to decibels."""
    if ratio <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {ratio} in dB")
    return 10.0 * math.log10(ratio)


# ---------------------------------------------------------------------------
# Mechanical conversions
# ---------------------------------------------------------------------------


def rpm_to_hz(rpm: float) -> float:
    """Convert revolutions per minute to revolutions per second."""
    return rpm / 60.0


def rpm_to_rad_per_s(rpm: float) -> float:
    """Convert revolutions per minute to angular velocity in rad/s."""
    return rpm * 2.0 * math.pi / 60.0


def kmh_to_mps(kmh: float) -> float:
    """Convert kilometres per hour to metres per second."""
    return kmh / 3.6


def mps_to_kmh(mps: float) -> float:
    """Convert metres per second to kilometres per hour."""
    return mps * 3.6


def mils_to_metres(mils: float) -> float:
    """Convert mils (thousandths of an inch) to metres.

    PCB laminate thicknesses in the paper are quoted in mils: the antenna
    needed a 70 mil dielectric but had to compromise at 50 mil.
    """
    return mils * 25.4e-6


def metres_to_mils(metres: float) -> float:
    """Convert metres to mils."""
    return metres / 25.4e-6


def psi_to_pascals(psi: float) -> float:
    """Convert pounds-per-square-inch to pascals (tire pressures)."""
    return psi * 6894.757293168


def pascals_to_psi(pascals: float) -> float:
    """Convert pascals to pounds-per-square-inch."""
    return pascals / 6894.757293168


def celsius_to_kelvin(celsius: float) -> float:
    """Convert degrees Celsius to kelvin."""
    return celsius + 273.15


def kelvin_to_celsius(kelvin: float) -> float:
    """Convert kelvin to degrees Celsius."""
    return kelvin - 273.15


# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in vacuum, m/s."""

BOLTZMANN = 1.380649e-23
"""Boltzmann constant, J/K."""

ELEMENTARY_CHARGE = 1.602176634e-19
"""Elementary charge, C."""

THERMAL_VOLTAGE_300K = 0.025852
"""kT/q at 300 K, volts — used by the diode and bandgap models."""

STANDARD_GRAVITY = 9.80665
"""Standard gravitational acceleration, m/s^2."""

ROOM_TEMPERATURE_K = 300.0
"""Default simulation ambient temperature, kelvin."""
