"""Tests for the harvester models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harvest.base import SourceWaveform
from repro.harvest.bicycle import BicycleWheelHarvester
from repro.harvest.shaker import ElectromagneticShaker
from repro.harvest.solar import SolarCladding
from repro.harvest.tire import DriveCycle, DriveSegment, TireHarvester, commuter_cycle
from repro.harvest.vibration import ResonantVibrationHarvester
from repro.harvest.waveforms import damped_burst, pulse_train, rms, sine
from repro.power.rectifier import BoostRectifier, SynchronousRectifier


V_BATT = 1.35


# -- waveform helpers ---------------------------------------------------------


def test_sine_amplitude_and_frequency():
    t = np.linspace(0.0, 1.0, 10001)
    v = sine(t, 2.0, 10.0)
    assert np.max(v) == pytest.approx(2.0, rel=1e-3)
    assert rms(v) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-3)


def test_sine_invalid_frequency():
    with pytest.raises(ConfigurationError):
        sine(np.array([0.0, 1.0]), 1.0, 0.0)


def test_damped_burst_zero_before_start():
    t = np.linspace(0.0, 1.0, 1001)
    v = damped_burst(t, t0=0.5, amplitude=1.0, ring_frequency=50.0, decay_tau=0.05)
    assert np.all(v[t < 0.5] == 0.0)
    assert np.max(np.abs(v)) > 0.5


def test_damped_burst_decays():
    t = np.linspace(0.0, 1.0, 10001)
    v = damped_burst(t, t0=0.0, amplitude=1.0, ring_frequency=50.0, decay_tau=0.05)
    early = np.max(np.abs(v[(t > 0.0) & (t < 0.1)]))
    late = np.max(np.abs(v[t > 0.5]))
    assert late < 0.01 * early


def test_pulse_train_period():
    t = np.linspace(0.0, 1.0, 100001)
    v = pulse_train(t, period=0.2, amplitude=1.0, ring_frequency=100.0, decay_tau=0.01)
    # Energy in each of the five pulse windows should be comparable.
    energies = [
        float(np.sum(np.square(v[(t >= k * 0.2) & (t < k * 0.2 + 0.1)])))
        for k in range(5)
    ]
    assert min(energies) > 0.5 * max(energies)


def test_source_waveform_validation():
    with pytest.raises(ConfigurationError):
        SourceWaveform(t=np.zeros(3), v_oc=np.zeros(4), r_source=1.0)
    with pytest.raises(ConfigurationError):
        SourceWaveform(t=np.zeros(3), v_oc=np.zeros(3), r_source=0.0)


# -- shaker ----------------------------------------------------------------------


def test_shaker_produces_harvestable_power():
    shaker = ElectromagneticShaker()
    power = shaker.average_power_into(V_BATT)
    assert 5e-6 < power < 100e-6


def test_shaker_power_scales_with_emf():
    weak = ElectromagneticShaker(peak_emf=1.8)
    strong = ElectromagneticShaker(peak_emf=2.6)
    assert strong.average_power_into(V_BATT) > weak.average_power_into(V_BATT)


def test_shaker_waveform_is_pulsed():
    shaker = ElectromagneticShaker(shake_rate_hz=5.0)
    wf = shaker.waveform(1.0)
    # Quiet fraction: most samples near zero between bursts.
    quiet = np.mean(np.abs(wf.v_oc) < 0.05 * wf.peak_voltage)
    assert quiet > 0.3


def test_shaker_invalid_config():
    with pytest.raises(ConfigurationError):
        ElectromagneticShaker(shake_rate_hz=0.0)
    with pytest.raises(ConfigurationError):
        ElectromagneticShaker(shake_rate_hz=100.0, ring_frequency_hz=50.0)


# -- tire ------------------------------------------------------------------------


def test_tire_rotation_rate_from_speed():
    tire = TireHarvester(wheel_radius_m=0.30)
    tire.set_speed_kmh(60.0)
    # 60 km/h = 16.67 m/s; circumference 1.885 m -> 8.84 rev/s
    assert tire.rotation_hz == pytest.approx(8.84, rel=0.01)


def test_tire_emf_grows_with_speed():
    tire = TireHarvester()
    tire.set_speed_kmh(30.0)
    emf_slow = tire.peak_emf
    tire.set_speed_kmh(100.0)
    assert tire.peak_emf > 3.0 * emf_slow


def test_tire_harvest_grows_with_speed():
    tire = TireHarvester()
    tire.set_speed_kmh(30.0)
    p_slow = tire.average_power_into(V_BATT)
    tire.set_speed_kmh(100.0)
    assert tire.average_power_into(V_BATT) > 5.0 * p_slow


def test_tire_city_speed_clears_node_budget():
    """At 30 km/h the harvester must beat the 6 uW node (with margin)."""
    tire = TireHarvester()
    tire.set_speed_kmh(30.0)
    assert tire.average_power_into(V_BATT) > 10 * 6e-6


def test_tire_parked_produces_nothing():
    tire = TireHarvester()
    tire.set_speed_kmh(0.0)
    wf = tire.waveform(0.5)
    assert np.all(wf.v_oc == 0.0)


def test_tire_negative_speed_rejected():
    with pytest.raises(ConfigurationError):
        TireHarvester().set_speed_kmh(-10.0)


# -- drive cycle ---------------------------------------------------------------------


def test_drive_cycle_duration_and_mean():
    cycle = DriveCycle(
        "x", [DriveSegment(100.0, 50.0), DriveSegment(300.0, 10.0)]
    )
    assert cycle.duration == 400.0
    assert cycle.mean_speed() == pytest.approx((100 * 50 + 300 * 10) / 400)


def test_drive_cycle_speed_lookup_loops():
    cycle = DriveCycle(
        "x", [DriveSegment(100.0, 50.0), DriveSegment(100.0, 0.0)]
    )
    assert cycle.speed_at(50.0) == 50.0
    assert cycle.speed_at(150.0) == 0.0
    assert cycle.speed_at(250.0) == 50.0  # looped


def test_drive_cycle_empty_rejected():
    with pytest.raises(ConfigurationError):
        DriveCycle("x", [])


def test_commuter_cycle_energy_positive():
    cycle = commuter_cycle()
    profile = cycle.harvest_profile(TireHarvester(), V_BATT)
    total_energy = sum(d * p for d, p in profile)
    assert total_energy > 0.0
    # Parked segments harvest nothing.
    parked = [p for (d, p), seg in zip(profile, cycle.segments) if seg.speed_kmh == 0]
    assert all(p == 0.0 for p in parked)


def test_commuter_average_beats_node_budget():
    """E12 precondition: a daily commute out-harvests the 6 uW node."""
    cycle = commuter_cycle()
    profile = cycle.harvest_profile(TireHarvester(), V_BATT)
    average = sum(d * p for d, p in profile) / cycle.duration
    assert average > 6e-6


# -- bicycle --------------------------------------------------------------------------


def test_bicycle_pulse_rate_includes_magnets():
    bike = BicycleWheelHarvester(wheel_radius_m=0.34, magnets=2)
    bike.set_speed_kmh(15.0)
    rotation = bike.speed_mps / (2.0 * np.pi * 0.34)
    assert bike.pulse_rate_hz == pytest.approx(2.0 * rotation)


def test_bicycle_harvests_at_riding_speed():
    bike = BicycleWheelHarvester()
    bike.set_speed_kmh(15.0)
    assert bike.average_power_into(V_BATT) > 6e-6


def test_bicycle_stationary_no_output():
    bike = BicycleWheelHarvester()
    bike.set_speed_kmh(0.0)
    assert np.all(bike.waveform(0.5).v_oc == 0.0)


def test_bicycle_invalid_magnets():
    with pytest.raises(ConfigurationError):
        BicycleWheelHarvester(magnets=0)


# -- vibration -------------------------------------------------------------------------


def test_vibration_power_at_resonance_formula():
    vib = ResonantVibrationHarvester(
        proof_mass_kg=1e-3, resonance_hz=120.0,
        zeta_mechanical=0.015, zeta_electrical=0.015,
    )
    vib.set_drive(2.5, 120.0)
    omega = 2.0 * np.pi * 120.0
    expected = 1e-3 * 0.015 * 2.5**2 / (4.0 * omega * 0.03**2)
    assert vib.electrical_power_at_resonance() == pytest.approx(expected)


def test_vibration_detuning_reduces_power():
    vib = ResonantVibrationHarvester(resonance_hz=120.0)
    vib.set_drive(2.5, 120.0)
    on_res = vib.electrical_power()
    vib.set_drive(2.5, 100.0)
    assert vib.electrical_power() < 0.2 * on_res


def test_vibration_power_equals_resonance_when_tuned():
    vib = ResonantVibrationHarvester(resonance_hz=120.0)
    vib.set_drive(2.5, 120.0)
    assert vib.electrical_power() == pytest.approx(
        vib.electrical_power_at_resonance(), rel=1e-9
    )


def test_vibration_optimal_damping_is_matched():
    assert ResonantVibrationHarvester.optimal_electrical_damping(0.02) == 0.02


def test_vibration_ceiling_reached_at_matched_damping():
    vib = ResonantVibrationHarvester(zeta_mechanical=0.015, zeta_electrical=0.015)
    assert vib.electrical_power_at_resonance() == pytest.approx(vib.power_ceiling())


def test_vibration_mems_source_needs_boost():
    """The paper's motivation for variable-ratio SC rectification."""
    vib = ResonantVibrationHarvester()
    assert vib.requires_boost(1.2)
    wf = vib.waveform(vib.characteristic_duration())
    plain = SynchronousRectifier().rectify(wf.t, wf.v_oc, wf.r_source, V_BATT)
    boost = BoostRectifier().rectify(wf.t, wf.v_oc, wf.r_source, V_BATT)
    assert plain.energy_out == 0.0
    assert boost.energy_out > 0.0


def test_vibration_boost_approaches_matched_power():
    vib = ResonantVibrationHarvester()
    wf = vib.waveform(vib.characteristic_duration())
    fraction = BoostRectifier().matched_power_fraction(
        wf.t, wf.v_oc, wf.r_source, V_BATT
    )
    assert fraction > 0.75


# -- solar ------------------------------------------------------------------


def test_solar_office_light_near_node_budget():
    solar = SolarCladding()
    assert 2e-6 < solar.output_power() < 50e-6


def test_solar_power_scales_with_irradiance():
    solar = SolarCladding()
    p_office = solar.output_power()
    solar.set_irradiance(1000.0)
    assert solar.output_power() == pytest.approx(1000.0 * p_office)


def test_solar_sufficiency_predicate():
    solar = SolarCladding()
    solar.set_irradiance(solar.required_irradiance(6e-6) * 1.01)
    assert solar.sufficient_for(6e-6)
    solar.set_irradiance(solar.required_irradiance(6e-6) * 0.99)
    assert not solar.sufficient_for(6e-6)


def test_solar_validation():
    with pytest.raises(ConfigurationError):
        SolarCladding(faces=6)
    with pytest.raises(ConfigurationError):
        SolarCladding(cell_efficiency=0.9)
    with pytest.raises(ConfigurationError):
        SolarCladding().set_irradiance(-1.0)
