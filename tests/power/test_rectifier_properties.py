"""Property-based tests for the rectifier models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.power.rectifier import (
    BoostRectifier,
    DiodeBridgeRectifier,
    IdealRectifier,
    SynchronousRectifier,
)


def sine(amplitude, freq, cycles=6, spc=400):
    t = np.linspace(0.0, cycles / freq, cycles * spc + 1)
    return t, amplitude * np.sin(2.0 * np.pi * freq * t)


amplitudes = st.floats(min_value=0.2, max_value=5.0)
frequencies = st.floats(min_value=10.0, max_value=500.0)
v_dcs = st.floats(min_value=0.8, max_value=2.0)


@settings(max_examples=40, deadline=None)
@given(amplitude=amplitudes, freq=frequencies, v_dc=v_dcs)
def test_property_ideal_dominates_everything(amplitude, freq, v_dc):
    """No real rectifier delivers more than the ideal one."""
    t, v = sine(amplitude, freq)
    args = (t, v, 500.0, v_dc)
    ideal = IdealRectifier().rectify(*args)
    for rectifier in (DiodeBridgeRectifier(), SynchronousRectifier()):
        real = rectifier.rectify(*args)
        assert real.energy_out <= ideal.energy_out + 1e-12


@settings(max_examples=40, deadline=None)
@given(amplitude=amplitudes, freq=frequencies, v_dc=v_dcs)
def test_property_efficiency_bounded(amplitude, freq, v_dc):
    t, v = sine(amplitude, freq)
    for rectifier in (IdealRectifier(), DiodeBridgeRectifier(),
                      SynchronousRectifier(), BoostRectifier()):
        result = rectifier.rectify(t, v, 500.0, v_dc)
        assert 0.0 <= result.efficiency <= 1.0
        assert result.energy_out >= 0.0
        assert result.charge_out >= 0.0


@settings(max_examples=30, deadline=None)
@given(amplitude=amplitudes, v_dc=v_dcs)
def test_property_charge_monotone_in_amplitude(amplitude, v_dc):
    """More EMF never delivers less charge."""
    t, v_small = sine(amplitude, 100.0)
    _, v_large = sine(amplitude * 1.5, 100.0)
    rect = SynchronousRectifier()
    small = rect.rectify(t, v_small, 500.0, v_dc)
    large = rect.rectify(t, v_large, 500.0, v_dc)
    assert large.charge_out >= small.charge_out - 1e-15


@settings(max_examples=30, deadline=None)
@given(amplitude=st.floats(min_value=1.5, max_value=5.0), v_dc=v_dcs)
def test_property_diode_bridge_energy_books(amplitude, v_dc):
    """energy_in == energy_out + itemised losses for the diode bridge."""
    t, v = sine(amplitude, 100.0)
    result = DiodeBridgeRectifier().rectify(t, v, 500.0, v_dc)
    assert result.energy_in == pytest.approx(
        result.energy_out + sum(result.losses.values()), rel=1e-9, abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(amplitude=amplitudes, v_dc=v_dcs)
def test_property_boost_never_worse_than_ideal_fraction(amplitude, v_dc):
    """The boost rectifier extracts at most the matched-source power."""
    t, v = sine(amplitude, 100.0)
    boost = BoostRectifier()
    fraction = boost.matched_power_fraction(t, v, 500.0, v_dc)
    assert 0.0 <= fraction <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(amplitude=st.floats(min_value=1.6, max_value=5.0), v_dc=v_dcs)
def test_property_sync_relative_ordering(amplitude, v_dc):
    """sync >= diode bridge in delivered energy, always."""
    t, v = sine(amplitude, 100.0)
    sync = SynchronousRectifier().rectify(t, v, 500.0, v_dc)
    bridge = DiodeBridgeRectifier().rectify(t, v, 500.0, v_dc)
    assert sync.energy_out >= bridge.energy_out - 1e-12
