"""Tests for sensor models and environments."""

import pytest

from repro.errors import ConfigurationError
from repro.sensors.accelerometer import Sca3000
from repro.sensors.base import SampleTiming
from repro.sensors.environment import MotionEnvironment, MotionInterval, TireEnvironment
from repro.sensors.tpms import WAKE_PERIOD_S, Sp12Tpms


# -- SampleTiming -----------------------------------------------------------


def test_sample_timing_total():
    timing = SampleTiming(settle_s=1.5e-3, conversion_s_per_channel=0.5e-3)
    assert timing.total(4) == pytest.approx(3.5e-3)


def test_sample_timing_validation():
    with pytest.raises(ConfigurationError):
        SampleTiming(settle_s=-1.0, conversion_s_per_channel=0.0)
    with pytest.raises(ConfigurationError):
        SampleTiming(1e-3, 1e-3).total(0)


# -- TireEnvironment -----------------------------------------------------------


def test_tire_warms_up_at_speed():
    tire = TireEnvironment(ambient_c=20.0, temp_rise_per_kmh=0.18)
    tire.set_speed_kmh(100.0)
    for _ in range(100):
        tire.advance(60.0)
    assert tire.temperature_c == pytest.approx(20.0 + 18.0, abs=0.5)


def test_tire_pressure_rises_with_temperature():
    tire = TireEnvironment(cold_pressure_psi=32.0, ambient_c=20.0)
    p_cold = tire.pressure_psi
    tire.set_speed_kmh(120.0)
    for _ in range(100):
        tire.advance(60.0)
    assert tire.pressure_psi > p_cold
    # Gay-Lussac sanity: ~1.07x for ~293 K -> ~314 K
    assert tire.pressure_psi / p_cold == pytest.approx(
        (273.15 + tire.temperature_c) / 293.15, rel=1e-3
    )


def test_tire_radial_acceleration():
    tire = TireEnvironment(wheel_radius_m=0.30)
    tire.set_speed_kmh(108.0)  # 30 m/s
    assert tire.radial_acceleration_g == pytest.approx(
        30.0**2 / 0.30 / 9.80665, rel=1e-6
    )


def test_tire_leak_reduces_pressure():
    tire = TireEnvironment(cold_pressure_psi=32.0)
    tire.leak(5.0)
    assert tire.pressure_psi < 32.0


def test_tire_cools_back_down():
    tire = TireEnvironment(ambient_c=20.0)
    tire.set_speed_kmh(100.0)
    for _ in range(50):
        tire.advance(60.0)
    hot = tire.temperature_c
    tire.set_speed_kmh(0.0)
    for _ in range(100):
        tire.advance(60.0)
    assert tire.temperature_c < hot
    assert tire.temperature_c == pytest.approx(20.0, abs=0.5)


# -- Sp12Tpms -----------------------------------------------------------------------


def test_sp12_channels():
    assert Sp12Tpms().channels == [
        "pressure_psi", "temperature_c", "acceleration_g", "supply_v",
    ]


def test_sp12_wake_period_is_six_seconds():
    assert Sp12Tpms().wake_period_s == WAKE_PERIOD_S == 6.0


def test_sp12_read_reflects_environment():
    sensor = Sp12Tpms()
    tire = TireEnvironment(cold_pressure_psi=32.0)
    tire.set_speed_kmh(60.0)
    reading = sensor.read(tire, 0.0)
    assert reading["pressure_psi"] == pytest.approx(tire.pressure_psi)
    assert reading["acceleration_g"] == pytest.approx(tire.radial_acceleration_g)


def test_sp12_supply_channel_programmable():
    sensor = Sp12Tpms()
    sensor.set_supply_reading(2.4)
    reading = sensor.read(TireEnvironment(), 0.0)
    assert reading["supply_v"] == 2.4


def test_sp12_rejects_wrong_environment():
    with pytest.raises(ConfigurationError):
        Sp12Tpms().read(MotionEnvironment([MotionInterval(0.0, 1.0)]), 0.0)


def test_sp12_sample_timing_inside_14ms_cycle():
    assert Sp12Tpms().sample_duration() < 10e-3


def test_sp12_sleep_current_sub_microamp():
    """Between events only the internal timer runs."""
    assert Sp12Tpms().i_sleep < 1e-6


def test_sensor_state_machine_and_energy():
    sensor = Sp12Tpms()
    assert sensor.current() == sensor.i_sleep
    sensor.begin_sample()
    assert sensor.current() == sensor.i_measure
    sensor.end_sample()
    assert sensor.samples_taken == 1
    assert sensor.sample_energy(2.1) == pytest.approx(
        2.1 * sensor.i_measure * sensor.sample_duration()
    )


def test_sensor_supply_window():
    with pytest.raises(ConfigurationError):
        Sp12Tpms().sample_energy(1.8)


# -- MotionEnvironment ------------------------------------------------------


def demo_script():
    return MotionEnvironment(
        [MotionInterval(10.0, 15.0), MotionInterval(30.0, 33.0, peak_g=2.0)]
    )


def test_motion_is_moving_windows():
    env = demo_script()
    assert not env.is_moving(5.0)
    assert env.is_moving(12.0)
    assert not env.is_moving(20.0)
    assert env.is_moving(31.0)


def test_motion_at_rest_reads_gravity_only():
    env = demo_script()
    assert env.acceleration_g(5.0) == (0.0, 0.0, 1.0)


def test_motion_accel_nonzero_while_handled():
    env = demo_script()
    x, y, z = env.acceleration_g(11.0)
    assert abs(x) + abs(y) + abs(z - 1.0) > 0.1


def test_motion_overlapping_intervals_rejected():
    with pytest.raises(ConfigurationError):
        MotionEnvironment(
            [MotionInterval(0.0, 10.0), MotionInterval(5.0, 15.0)]
        )


def test_motion_threshold_crossings_once_per_handling():
    env = demo_script()
    crossings = env.threshold_crossings(0.3, 40.0)
    # at least one crossing inside each interval, none at rest
    assert any(10.0 <= t < 15.0 for t in crossings)
    assert any(30.0 <= t < 33.0 for t in crossings)
    assert all(env.is_moving(t) for t in crossings)


# -- Sca3000 ----------------------------------------------------------------


def test_sca3000_fits_placement_area():
    """Paper: 7x7 mm 'just barely fits' the 7.2 mm boundary."""
    x, y = Sca3000.footprint_mm()
    assert x <= 7.2 and y <= 7.2


def test_sca3000_motion_mode_current_low():
    sensor = Sca3000()
    assert sensor.i_sleep < 0.2 * sensor.i_measure


def test_sca3000_read_axes():
    sensor = Sca3000()
    env = demo_script()
    reading = sensor.read(env, 12.0)
    assert set(reading) == {"accel_x_g", "accel_y_g", "accel_z_g"}


def test_sca3000_interrupts_follow_threshold():
    sensor = Sca3000(threshold_g=0.3)
    env = demo_script()
    times = sensor.interrupt_times(env, 40.0)
    assert times  # the demo wobbles exceed 0.3 g
    sensor.set_threshold(10.0)  # nothing exceeds 10 g
    assert sensor.interrupt_times(env, 40.0) == []


def test_sca3000_threshold_validation():
    with pytest.raises(ConfigurationError):
        Sca3000(threshold_g=0.0)
    with pytest.raises(ConfigurationError):
        Sca3000().set_threshold(-1.0)


def test_sca3000_rejects_wrong_environment():
    with pytest.raises(ConfigurationError):
        Sca3000().read(TireEnvironment(), 0.0)
