"""Integration tests for the PicoCube node."""

import math

import pytest

from repro.core.builder import build_motion_node, build_tpms_deployment, build_tpms_node
from repro.core.config import NodeConfig
from repro.core.energy_audit import audit_node
from repro.core.node import PicoCube
from repro.core.profiles import capture_cycle_profile, render_ascii
from repro.errors import ConfigurationError, SimulationError
from repro.mcu.msp430 import Mode
from repro.net.packet import decode_tpms_reading
from repro.sensors.environment import MotionInterval


def test_config_validation():
    with pytest.raises(ConfigurationError):
        NodeConfig(power_train="nuclear")
    with pytest.raises(ConfigurationError):
        NodeConfig(sensor_kind="barometer")
    with pytest.raises(ConfigurationError):
        NodeConfig(fidelity="cinematic")
    with pytest.raises(ConfigurationError):
        NodeConfig(node_id=999)


NODE_CONFIG_FLOAT_FIELDS = (
    "bit_rate", "mcu_clock_hz", "pa_sequencing_delay_s",
    "motion_sample_interval_s", "recovery_voltage_v",
    "recovery_check_period_s",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", NODE_CONFIG_FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(field, value):
    """NaN passes every sign check and inf runs on (``bit_rate=inf``
    transmits in zero air time), so both fail at construction."""
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
        NodeConfig(**{field: value})


def test_config_negative_value_messages_unchanged():
    with pytest.raises(ConfigurationError,
                       match="bit_rate and mcu_clock_hz must be positive"):
        NodeConfig(bit_rate=-1.0)
    with pytest.raises(ConfigurationError,
                       match="invalid timing configuration"):
        NodeConfig(pa_sequencing_delay_s=-1e-6)


def test_tpms_node_samples_every_six_seconds():
    node = build_tpms_node()
    # 60.05 s: the cycle that *starts* at t=60 gets its 13 ms to finish.
    node.run(60.05)
    assert node.cycles_completed == 10
    assert node.cycle_start_times == pytest.approx(
        [6.0 * k for k in range(1, 11)]
    )


def test_tpms_average_power_matches_paper():
    """Paper §6: 'Average Cube power consumption using the TPMS sensor is
    6 uW, dominated by quiescent losses from the power management
    circuitry.'"""
    node = build_tpms_node()
    node.run(3600.0)
    average = node.average_power()
    assert 5e-6 < average < 8e-6
    audit = audit_node(node)
    assert audit.dominant_channel() == "power-management"


def test_cycle_duration_about_14ms():
    """Paper §4.5: the sample/format/transmit cycle 'takes about 14 ms'."""
    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    profile = capture_cycle_profile(node)
    assert 9e-3 < profile.cycle_duration < 17e-3


def test_profile_shape_peak_and_floor():
    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    profile = capture_cycle_profile(node)
    # Radio burst peaks in the milliwatts; sleep floor in the microwatts.
    assert profile.peak_power_w > 1e-3
    assert profile.sleep_power_w < 10e-6
    assert profile.cycle_energy_j > 1e-6


def test_profile_render_ascii():
    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    text = render_ascii(capture_cycle_profile(node))
    assert "on-cycle profile" in text
    assert "#" in text


def test_profile_requires_cycles():
    node = build_tpms_node()
    with pytest.raises(SimulationError):
        capture_cycle_profile(node)


def test_fast_and_profile_fidelity_agree_on_energy():
    """The two transmit models must integrate to the same energy."""
    fast = PicoCube(NodeConfig(fidelity="fast"))
    detailed = PicoCube(NodeConfig(fidelity="profile"))
    fast.run(60.0)
    detailed.run(60.0)
    e_fast = fast.recorder.total_energy()
    e_detailed = detailed.recorder.total_energy()
    assert e_fast == pytest.approx(e_detailed, rel=2e-3)


def test_packets_carry_sensor_values():
    node = build_tpms_node()
    node.environment.set_speed_kmh(60.0)
    node.run(20.0)
    assert node.packets_sent
    values = decode_tpms_reading(node.packets_sent[-1])
    assert values["pressure_psi"] == pytest.approx(
        node.environment.pressure_psi, abs=0.1
    )
    assert values["supply_v"] == pytest.approx(2.2, abs=0.01)


def test_packet_sequence_increments():
    node = build_tpms_node()
    node.run(30.0)
    seqs = [p.seq for p in node.packets_sent]
    assert seqs == list(range(len(seqs)))


def test_battery_drains_without_harvester():
    node = build_tpms_node()
    charge_before = node.battery.charge
    node.run(3600.0)
    drained = charge_before - node.battery.charge
    assert drained > 0.0
    # ~5.5 uA average (incl. self-discharge) for an hour: tens of mC.
    assert 5e-3 < drained < 60e-3


def test_mcu_returns_to_lpm3_between_cycles():
    node = build_tpms_node()
    node.run(10.0)  # one full cycle plus idle
    assert node.mcu.mode is Mode.LPM3
    assert not node.train.radio_enabled


def test_ic_power_train_node_runs():
    node = build_tpms_node(power_train="ic")
    node.run(600.05)
    assert node.cycles_completed == 100
    # Quiescent-heavy: the IC's pad ring pushes the average above COTS.
    assert node.average_power() > 8e-6


def test_run_accumulates():
    node = build_tpms_node()
    node.run(30.0)
    node.run(30.05)
    assert node.engine.now == pytest.approx(60.05)
    assert node.cycles_completed == 10


def test_negative_duration_rejected():
    node = build_tpms_node()
    with pytest.raises(SimulationError):
        node.run(-1.0)


# -- motion demo -----------------------------------------------------------------


def test_motion_node_sleeps_until_handled():
    node = build_motion_node(
        intervals=[MotionInterval(10.0, 12.0)]
    )
    node.run(9.0)
    assert node.cycles_completed == 0
    node.run(4.0)
    assert node.cycles_completed > 0


def test_motion_node_streams_while_moving():
    node = build_motion_node(intervals=[MotionInterval(5.0, 10.0)])
    node.run(20.0)
    # ~0.25 s sample interval over a 5 s window: double-digit sample count.
    assert 10 <= node.cycles_completed <= 25
    # All cycles happened inside (or right at the edge of) the window.
    assert all(4.9 <= t <= 10.5 for t in node.cycle_start_times)


def test_motion_node_stops_when_put_down():
    node = build_motion_node(intervals=[MotionInterval(5.0, 8.0)])
    node.run(30.0)
    cycles_after_window = [t for t in node.cycle_start_times if t > 8.5]
    assert not cycles_after_window


def test_motion_node_deep_sleep_power():
    """On the table the node idles in the microwatts."""
    node = build_motion_node(intervals=[MotionInterval(100.0, 101.0)])
    node.run(50.0)  # never handled
    assert node.average_power() < 40e-6


# -- harvesting -----------------------------------------------------------------------


def test_attach_charger_keeps_battery_topped():
    node = build_tpms_node()
    soc_start = node.battery.soc
    node.attach_charger(lambda t: 100e-6, update_period_s=30.0)
    node.run(3600.0)
    assert node.battery.soc > soc_start  # 100 uA >> 5.5 uA draw


def test_attach_charger_twice_rejected():
    node = build_tpms_node()
    node.attach_charger(lambda t: 0.0)
    with pytest.raises(ConfigurationError):
        node.attach_charger(lambda t: 0.0)


def test_tpms_deployment_builds_and_runs():
    deployment = build_tpms_deployment(harvest_update_s=120.0)
    deployment.node.run(1800.05)  # first half-hour: driving
    assert deployment.node.cycles_completed == 300
    # Driving segments harvest orders of magnitude more than the node uses.
    assert deployment.node.battery.soc >= 0.6


# -- line coding ---------------------------------------------------------------


def test_manchester_line_code_doubles_air_energy():
    nrz = PicoCube(NodeConfig(line_code="nrz"))
    manchester = PicoCube(NodeConfig(line_code="manchester"))
    nrz.run(60.5)
    manchester.run(60.5)
    # Same packets framed; only the air coding differs.
    assert nrz.packets_sent == manchester.packets_sent
    # 2x the chips, and every chip pair carries exactly one mark while
    # the sparse NRZ frame idles the carrier: expect ~2.4-2.8x RF energy.
    ratio = (
        manchester.recorder.energy("radio-rf")
        / nrz.recorder.energy("radio-rf")
    )
    assert 1.5 < ratio < 3.5


def test_invalid_line_code_rejected():
    with pytest.raises(ConfigurationError):
        NodeConfig(line_code="4b5b")
