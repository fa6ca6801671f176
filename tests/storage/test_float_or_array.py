"""Each cell and radio formula is one function for a float and a lane array.

:class:`NiMHCell` evaluates :mod:`repro.storage.nimh`'s formulas on
Python floats; the cohort fleet chain calls the same functions on
float64 lane arrays, which they update in place.  Each function runs
here on a float, on a 1-lane array and on an n-lane array, and every
lane must equal the float bit for bit.  The cell's own methods, which
call the functions, are checked against them too.
"""

import math

import numpy as np
import pytest

from repro.radio import FbarTransmitter
from repro.storage.nimh import (
    LOW_SOC,
    NiMHCell,
    cold_factor,
    low_soc_factor,
    segment_ocv,
    self_discharge_exponent,
    self_discharge_loss,
)

CELL = NiMHCell()
#: (upper soc, lower soc, lower volts, soc width, volt rise) per segment.
SEGMENTS = CELL._ocv_segments
#: Warm, the rating, the fleet ambient, cold and hot, C.
TEMPERATURES = [40.0, 25.0, 20.0, 10.0, -20.0]
ESR_MULTIPLIERS = [1.0, 0.5, 1.7, 3.0]
ACCELERATIONS = [0.0, 1.0, 0.5, 2.5, 2e5]


def _socs():
    """Every OCV knee +-1 ulp, soc 0.2 +-1 ulp and a few plateau points."""
    socs = []
    for knee in [s0 for _, s0, _, _, _ in SEGMENTS] + [1.0, LOW_SOC]:
        for soc in (math.nextafter(knee, -math.inf), knee,
                    math.nextafter(knee, math.inf)):
            if 0.0 <= soc <= 1.0:
                socs.append(soc)
    return socs + [0.3, 0.6, 0.875]


SOCS = _socs()


def _segment(soc):
    """The row ``open_circuit_voltage`` picks for ``soc``."""
    return next(row for row in SEGMENTS if soc <= row[0])


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def _assert_lanes_match(function, floats, *columns):
    """``function`` on each float row equals it on 1-lane and n-lane
    arrays of the same rows; the first argument is the one overwritten."""
    expected = [function(*row).hex() for row in zip(floats, *columns)]
    lanes = [np.array(values, dtype=float) for values in (floats, *columns)]
    for k in range(len(floats)):
        one = [lane[k:k + 1].copy() for lane in lanes]
        assert _hex(function(*one)) == [expected[k]], k
    full = [lane.copy() for lane in lanes]
    result = function(*full)
    assert _hex(result) == expected
    assert np.shares_memory(result, full[0])  # written through, not copied


def test_segment_ocv_on_floats_and_lanes():
    rows = [_segment(soc) for soc in SOCS]
    columns = [[row[k] for row in rows] for k in (1, 2, 3, 4)]
    _assert_lanes_match(segment_ocv, SOCS, *columns)
    for soc in SOCS:  # the cell's method is this function on its segment
        CELL._charge = soc * CELL.capacity_coulombs
        _, s0, v0, width, rise = _segment(CELL.soc)
        assert CELL.open_circuit_voltage().hex() == \
            segment_ocv(CELL.soc, s0, v0, width, rise).hex()


def test_segment_ocv_with_one_segment_scalars():
    """The cohort's one-segment read: scalars, not gathered columns."""
    for _, s0, v0, width, rise in SEGMENTS:
        socs = [soc for soc in SOCS if _segment(soc)[1] == s0]
        expected = _hex([segment_ocv(soc, s0, v0, width, rise)
                         for soc in socs])
        lanes = np.array(socs)
        assert _hex(segment_ocv(lanes, s0, v0, width, rise)) == expected


def test_resistance_factors_on_floats_and_lanes():
    low = [soc for soc in SOCS if soc < LOW_SOC]
    expected = _hex([low_soc_factor(soc) for soc in low])
    assert _hex(low_soc_factor(np.array(low))) == expected
    for k, soc in enumerate(low):
        assert _hex(low_soc_factor(np.array([soc]))) == [expected[k]]
    expected = _hex([cold_factor(t) for t in TEMPERATURES])
    assert _hex(cold_factor(np.array(TEMPERATURES))) == expected


@pytest.mark.parametrize("temperature_c", TEMPERATURES)
@pytest.mark.parametrize("esr", ESR_MULTIPLIERS)
def test_internal_resistance_is_the_factors_in_order(temperature_c, esr):
    """r_mid, times the low-soc factor, times the cold factor, times the
    ESR multiplier: the order the cohort read applies them per lane."""
    cell = NiMHCell()
    cell.set_temperature(temperature_c)
    cell.set_esr_multiplier(esr)
    charges = [soc * cell.capacity_coulombs for soc in SOCS]
    socs = np.array(charges) / cell.capacity_coulombs
    lanes = np.where(socs < LOW_SOC,
                     cell.r_internal_mid * low_soc_factor(socs),
                     cell.r_internal_mid)
    if temperature_c < 25.0:
        lanes = lanes * cold_factor(temperature_c)
    lanes = lanes * np.full(len(SOCS), esr)
    for charge, lane in zip(charges, lanes):
        cell._charge = charge
        assert cell.internal_resistance().hex() == float(lane).hex(), charge


def test_self_discharge_exponent_on_floats_and_lanes():
    dts = [6.0, 0.0125, 3600.0, 1e-9, 2.0 * 86400.0]
    rows = [(dt, accel) for dt in dts for accel in ACCELERATIONS]
    _assert_lanes_match(self_discharge_exponent,
                        [dt for dt, _ in rows], [a for _, a in rows])


def test_self_discharge_loss_on_floats_and_lanes():
    keeps = [1.0, 0.0, 0.75, 0.999999999, math.nextafter(1.0, 0.0)]
    charges = [54.0, 32.4, 0.0, 1e-12, 10.8]
    rows = [(keep, charge) for keep in keeps for charge in charges]
    _assert_lanes_match(self_discharge_loss,
                        [k for k, _ in rows], [c for _, c in rows])


@pytest.mark.parametrize("temperature_c", TEMPERATURES)
@pytest.mark.parametrize("multiplier", [0.0, 1.0, 3.0, 2e5])
def test_apply_self_discharge_is_the_shared_formulas(temperature_c,
                                                     multiplier):
    """The lane composition the cohort sync runs, against the cell."""
    dts = [6.0, 0.0125, 3600.0]
    lanes_dt = np.array(dts)
    charge = 0.6 * CELL.capacity_coulombs
    cell = NiMHCell()
    cell.set_temperature(temperature_c)
    cell.set_self_discharge_multiplier(multiplier)
    accel = np.full(len(dts), cell._self_discharge_acceleration())
    exponent = self_discharge_exponent(lanes_dt, accel)
    keep = np.array([cell.monthly_retention ** float(x) for x in exponent])
    after = np.full(len(dts), charge)
    lost = self_discharge_loss(keep, after)
    after -= lost
    for k, dt in enumerate(dts):
        cell._charge = charge
        assert cell.apply_self_discharge(dt).hex() == float(lost[k]).hex()
        assert cell.charge.hex() == float(after[k]).hex()


def test_ook_rf_current_on_floats_and_lanes():
    tx = FbarTransmitter()
    fractions = [0.0, 1.0, 0.5, 37 / 96, 1 / 3, 59 / 128]
    expected = [tx.ook_rf_current(f).hex() for f in fractions]
    assert expected == [(tx.p_dc_on * f / tx.v_rf_rail).hex()
                        for f in fractions]
    lanes = np.array(fractions)
    assert _hex(tx.ook_rf_current(lanes)) == expected
    assert _hex(lanes) == expected  # overwritten in place
    for k, f in enumerate(fractions):
        assert _hex(tx.ook_rf_current(np.array([f]))) == [expected[k]]


def test_formulas_equal_the_inline_expressions_they_replace():
    """The augmented-assignment spellings give the bits of the plain
    expressions the cell evaluated inline (signed zeros included)."""
    for soc in SOCS:
        _, s0, v0, width, rise = _segment(soc)
        assert segment_ocv(soc, s0, v0, width, rise).hex() == \
            (v0 + (soc - s0) / width * rise).hex()
        assert low_soc_factor(soc).hex() == \
            (1.0 + 4.0 * (0.2 - soc) / 0.2).hex()
    for temperature_c in TEMPERATURES:
        assert cold_factor(temperature_c).hex() == \
            (1.0 + 0.02 * (25.0 - temperature_c)).hex()
    month = 30.0 * 86400.0
    for dt in (6.0, 0.0125, 3600.0, 1e-9):
        for accel in ACCELERATIONS:
            assert self_discharge_exponent(dt, accel).hex() == \
                (dt * accel / month).hex()
    for keep in (1.0, 0.0, 0.75, math.nextafter(1.0, 0.0), -0.0):
        for charge in (54.0, 0.0, 1e-12):
            assert self_discharge_loss(keep, charge).hex() == \
                (charge * (1.0 - keep)).hex()
