"""Tests for the rectifier models (E5 substrate)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power.rectifier import (
    DiodeBridgeRectifier,
    IdealRectifier,
    SynchronousRectifier,
    relative_to_ideal,
)


def sine(amplitude=2.0, freq=100.0, cycles=10, samples_per_cycle=2000):
    t = np.linspace(0.0, cycles / freq, cycles * samples_per_cycle + 1)
    return t, amplitude * np.sin(2.0 * np.pi * freq * t)


V_DC = 1.35  # NiMH cell under trickle charge


def test_ideal_rectifier_efficiency_is_unity():
    t, v = sine()
    result = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert result.efficiency == pytest.approx(1.0, abs=1e-9)


def test_ideal_rectifier_delivers_positive_charge():
    t, v = sine()
    result = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert result.charge_out > 0.0
    assert result.energy_out == pytest.approx(V_DC * result.charge_out)


def test_ideal_rectifier_no_conduction_below_vdc():
    t, v = sine(amplitude=1.0)
    result = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert result.charge_out == 0.0


def test_diode_bridge_needs_two_forward_drops():
    t, v = sine(amplitude=1.9)
    # conduction threshold = 1.35 + 2*0.35 = 2.05 > 1.9: nothing flows
    result = DiodeBridgeRectifier(v_forward=0.35).rectify(
        t, v, r_source=500.0, v_dc=V_DC
    )
    assert result.charge_out == 0.0


def test_diode_bridge_charges_less_than_ideal():
    t, v = sine(amplitude=3.0)
    bridge = DiodeBridgeRectifier(v_forward=0.35).rectify(
        t, v, r_source=500.0, v_dc=V_DC
    )
    ideal = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert 0.0 < bridge.charge_out < ideal.charge_out
    assert relative_to_ideal(bridge) < 0.6


def test_diode_bridge_loss_is_diode_drop():
    t, v = sine(amplitude=3.0)
    result = DiodeBridgeRectifier(v_forward=0.35).rectify(
        t, v, r_source=500.0, v_dc=V_DC
    )
    assert result.losses["diode-drop"] == pytest.approx(
        2.0 * 0.35 * result.charge_out, rel=1e-9
    )


def test_synchronous_beats_diode_bridge():
    t, v = sine(amplitude=2.0)
    kwargs = dict(r_source=500.0, v_dc=V_DC)
    sync = SynchronousRectifier().rectify(t, v, **kwargs)
    bridge = DiodeBridgeRectifier().rectify(t, v, **kwargs)
    assert sync.energy_out > bridge.energy_out
    assert relative_to_ideal(sync) > relative_to_ideal(bridge)


def test_synchronous_near_ideal_at_450uW():
    """Paper: 96 % of ideal-rectifier efficiency at ~450 uW input."""
    for amplitude in np.linspace(1.8, 2.1, 7):
        t, v = sine(amplitude=float(amplitude))
        result = SynchronousRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
        if 400e-6 <= result.power_in <= 500e-6:
            assert relative_to_ideal(result) > 0.93
            return
    pytest.fail("no amplitude produced ~450 uW input power")


def test_synchronous_degrades_at_very_light_input():
    """Comparator bias is constant, so tiny inputs see worse efficiency."""
    t_small, v_small = sine(amplitude=1.45)
    t_big, v_big = sine(amplitude=2.5)
    kwargs = dict(r_source=500.0, v_dc=V_DC)
    small = SynchronousRectifier().rectify(t_small, v_small, **kwargs)
    big = SynchronousRectifier().rectify(t_big, v_big, **kwargs)
    assert relative_to_ideal(small) < relative_to_ideal(big)


def test_synchronous_losses_itemised():
    t, v = sine(amplitude=2.0)
    result = SynchronousRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    for key in ("conduction", "comparator-bias", "gate-charge", "comparator-offset"):
        assert key in result.losses
        assert result.losses[key] >= 0.0


def test_rectifier_result_power_properties():
    t, v = sine()
    result = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert result.power_out == pytest.approx(result.energy_out / result.duration)
    assert result.power_in == pytest.approx(result.energy_in / result.duration)


def test_waveform_validation():
    rect = IdealRectifier()
    with pytest.raises(ConfigurationError):
        rect.rectify([0.0], [1.0], r_source=500.0, v_dc=V_DC)
    with pytest.raises(ConfigurationError):
        rect.rectify([0.0, 1.0], [1.0], r_source=500.0, v_dc=V_DC)
    with pytest.raises(ConfigurationError):
        rect.rectify([0.0, 0.0], [1.0, 1.0], r_source=500.0, v_dc=V_DC)
    with pytest.raises(ConfigurationError):
        rect.rectify([0.0, 1.0], [1.0, 1.0], r_source=0.0, v_dc=V_DC)
    with pytest.raises(ConfigurationError):
        rect.rectify([0.0, 1.0], [1.0, 1.0], r_source=500.0, v_dc=0.0)


def test_relative_to_ideal_zero_when_no_source_energy():
    t, v = sine(amplitude=0.5)
    result = IdealRectifier().rectify(t, v, r_source=500.0, v_dc=V_DC)
    assert relative_to_ideal(result) == 0.0
