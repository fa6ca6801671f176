"""Tests for the temperature physics threaded through the system."""

import pytest

from repro.core.builder import build_tpms_node
from repro.errors import ConfigurationError, StorageError
from repro.mcu.msp430 import Mode, Msp430
from repro.sensors.environment import TireEnvironment
from repro.storage.nimh import NiMHCell


# -- MSP430 leakage vs temperature --------------------------------------------


def test_lpm3_leakage_doubles_per_12c():
    mcu = Msp430()
    cold = mcu.current(2.2, Mode.LPM3, temperature_c=25.0)
    hot = mcu.current(2.2, Mode.LPM3, temperature_c=37.0)
    assert hot == pytest.approx(2.0 * cold, rel=1e-9)


def test_active_current_temperature_flat():
    mcu = Msp430()
    assert mcu.current(2.2, Mode.ACTIVE, temperature_c=85.0) == (
        mcu.current(2.2, Mode.ACTIVE, temperature_c=25.0)
    )


def test_winter_leakage_below_nominal():
    mcu = Msp430()
    assert mcu.current(2.2, Mode.LPM3, temperature_c=-10.0) < (
        mcu.current(2.2, Mode.LPM3, temperature_c=25.0)
    )


def test_temperature_range_enforced():
    mcu = Msp430()
    with pytest.raises(ConfigurationError):
        mcu.current(2.2, Mode.LPM3, temperature_c=150.0)
    with pytest.raises(ConfigurationError):
        mcu.current(2.2, Mode.LPM3, temperature_c=-60.0)


# -- NiMH vs temperature ------------------------------------------------------------


def test_self_discharge_doubles_per_10c():
    hot = NiMHCell()
    cool = NiMHCell()
    hot.set_temperature(35.0)
    cool.set_temperature(25.0)
    lost_hot = hot.apply_self_discharge(3600.0)
    lost_cool = cool.apply_self_discharge(3600.0)
    assert lost_hot == pytest.approx(2.0 * lost_cool, rel=0.01)


def test_cold_cell_resistance_rises():
    cell = NiMHCell()
    r_warm = cell.internal_resistance()
    cell.set_temperature(-20.0)
    assert cell.internal_resistance() > 1.5 * r_warm


def test_hot_cell_resistance_unchanged():
    cell = NiMHCell()
    r_warm = cell.internal_resistance()
    cell.set_temperature(60.0)
    assert cell.internal_resistance() == pytest.approx(r_warm)


def test_cell_temperature_range_enforced():
    with pytest.raises(StorageError):
        NiMHCell().set_temperature(150.0)


# -- node-level thermal coupling -------------------------------------------------------


def hot_environment(ambient_c, speed_kmh=0.0):
    env = TireEnvironment(ambient_c=ambient_c)
    env.set_speed_kmh(speed_kmh)
    for _ in range(100):
        env.advance(60.0)
    return env


def test_node_power_grows_with_ambient():
    cool = build_tpms_node(environment=hot_environment(0.0))
    warm = build_tpms_node(environment=hot_environment(45.0))
    cool.run(1800.0)
    warm.run(1800.0)
    assert warm.average_power() > 1.3 * cool.average_power()


def test_node_ambient_tracks_environment():
    node = build_tpms_node(environment=hot_environment(35.0, speed_kmh=100.0))
    assert node.ambient_c() > 45.0


def test_motion_node_defaults_to_room_temperature():
    from repro.core.builder import build_motion_node

    node = build_motion_node()
    assert node.ambient_c() == 25.0


def test_battery_temperature_follows_tire():
    node = build_tpms_node(environment=hot_environment(35.0, speed_kmh=100.0))
    node.run(60.5)
    assert node.battery.temperature_c > 45.0
