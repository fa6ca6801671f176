"""Tests for the multi-node fleet channel model."""

import pytest

from repro.errors import ConfigurationError
from repro.net.fleet import AirTimeRecord, FleetChannel, aloha_prediction
from repro.sim.fleet_engine import FleetScenario, run_fleet
from repro.studies import fleet_density_campaign


def test_air_time_record_overlap():
    a = AirTimeRecord(1, 0, 0.0, 1.0)
    b = AirTimeRecord(2, 0, 0.5, 1.5)
    c = AirTimeRecord(3, 0, 1.0, 2.0)
    assert a.overlaps(b)
    assert b.overlaps(a)
    assert not a.overlaps(c)  # touching, not overlapping


def test_single_node_never_collides():
    fleet = FleetChannel(1)
    stats = fleet.run(60.5)
    assert stats.transmitted == 10
    assert stats.collided == 0


def test_staggered_fleet_collision_free():
    """Default stagger spreads the 6 s period: no overlap at ~300 us bursts."""
    fleet = FleetChannel(8)
    stats = fleet.run(120.5)
    # Offsets spread over the period, so per-node counts straddle 19-20.
    assert stats.transmitted >= 8 * 19
    assert stats.collided == 0


def test_clustered_fleet_collides():
    """Nodes waking within a burst width of each other all collide."""
    fleet = FleetChannel(6, stagger_s=0.0001)
    stats = fleet.run(60.0)
    assert stats.collision_rate == 1.0


def test_explicit_phases():
    # Two nodes on top of each other, one far away.
    fleet = FleetChannel(3, phases=[0.0, 0.00005, 3.0])
    stats = fleet.run(62.0)
    assert stats.transmitted == 29  # the offset-3s node fits one fewer
    # The two clustered nodes lose everything; the third is clean.
    assert stats.collided == 20


def test_phase_count_validated():
    with pytest.raises(ConfigurationError):
        FleetChannel(3, phases=[0.0, 1.0])


def test_node_count_validated():
    with pytest.raises(ConfigurationError):
        FleetChannel(0)


def test_air_time_records_sorted_and_sized():
    fleet = FleetChannel(4)
    fleet.run(60.0)
    records = fleet.air_time_records()
    starts = [r.start for r in records]
    assert starts == sorted(starts)
    # Burst duration ~ packet on-air time (96 bits at 330 kbps) + startup.
    for record in records:
        assert 2e-4 < record.end - record.start < 5e-4


def test_all_nodes_share_one_engine():
    fleet = FleetChannel(3)
    assert all(node.engine is fleet.engine for node in fleet.nodes)
    fleet.run(30.0)
    for node in fleet.nodes:
        assert node.cycles_completed >= 4


def test_density_sweep_shapes():
    rows, _ = fleet_density_campaign([1, 4], duration_s=60.0, workers=1)
    assert [row[0] for row in rows] == [1, 4]
    assert rows[1][1].transmitted == 4 * rows[0][1].transmitted
    assert rows[1][2].transmitted == 4 * rows[0][2].transmitted


def test_aloha_prediction_bounds():
    assert aloha_prediction(1, 3e-4) == 1.0
    assert 0.0 < aloha_prediction(100, 3e-4) < 1.0
    assert aloha_prediction(10, 3e-4) > aloha_prediction(100, 3e-4)


def test_aloha_prediction_validation():
    with pytest.raises(ConfigurationError):
        aloha_prediction(0, 3e-4)
    with pytest.raises(ConfigurationError):
        aloha_prediction(5, -1.0)


def test_random_phase_fleet_tracks_aloha():
    """Empirical collision rate at random phases ~ the analytic model."""
    import random

    rng = random.Random(42)
    count = 30
    fleet = FleetChannel(count, phases=[rng.uniform(0, 6.0) for _ in range(count)])
    stats = fleet.run(600.0)
    predicted_loss = 1.0 - aloha_prediction(count, 3.2e-4)
    # Both should be "a few percent at worst"; agree within a factor ~3
    # (small-sample noise on a rare event).
    assert stats.collision_rate < 5.0 * max(predicted_loss, 0.01)


def test_collision_sweep_catches_chained_overlaps():
    """Regression: one long burst overlapping several later ones must flag
    every victim, not just the adjacent one."""
    from repro.net.fleet import FleetChannel

    fleet = FleetChannel.__new__(FleetChannel)  # bypass node construction

    class _Stub(FleetChannel):
        def __init__(self, records):
            self._records = records

        def air_time_records(self):
            return self._records

    records = [
        AirTimeRecord(1, 0, 0.0, 10.0),   # covers everything below
        AirTimeRecord(2, 0, 1.0, 2.0),
        AirTimeRecord(3, 0, 3.0, 4.0),    # NOT adjacent to record 1
        AirTimeRecord(4, 0, 20.0, 21.0),  # clean
    ]
    stats = _Stub(records).collision_stats()
    assert stats.transmitted == 4
    assert stats.collided == 3  # nodes 1, 2, AND 3


def test_collision_sweep_middle_burst_ends_early():
    from repro.net.fleet import FleetChannel

    class _Stub(FleetChannel):
        def __init__(self, records):
            self._records = records

        def air_time_records(self):
            return self._records

    records = [
        AirTimeRecord(1, 0, 0.0, 5.0),
        AirTimeRecord(2, 0, 0.5, 1.0),   # inside record 1
        AirTimeRecord(3, 0, 4.0, 6.0),   # overlaps record 1, not record 2
    ]
    stats = _Stub(records).collision_stats()
    assert stats.collided == 3


def test_air_time_records_use_each_packets_own_bit_count():
    """Regression: on-air time must come from each packet's own line-coded
    length, not from packets_sent[0] (mixed-length packets happen with
    heartbeats and future variable payloads)."""
    from repro.net.packet import KIND_HEARTBEAT, PicoPacket

    fleet = FleetChannel(1, phases=[0.0])
    fleet.run(13.0)
    node = fleet.nodes[0]
    assert len(node.packets_sent) == 2
    short = PicoPacket(node_id=node.config.node_id, kind=KIND_HEARTBEAT,
                       seq=1, payload_words=())
    assert short.bit_count < node.packets_sent[0].bit_count
    node.packets_sent[1] = short

    records = fleet.air_time_records()
    durations = [record.end - record.start for record in records]
    startup = node.tx.startup_time()
    expected = [
        startup + node.modulator.duration(len(node._line_code_bits(packet)))
        for packet in node.packets_sent
    ]
    # end/start are absolute times, so the subtraction reintroduces at
    # most an ulp of rounding against the directly-summed on-air time.
    assert durations == pytest.approx(expected, rel=1e-12)
    assert durations[1] < durations[0]


def seeded_fleet(count, seed):
    scenario = FleetScenario(node_count=count, duration_s=30.0,
                             phase_seed=seed)
    return run_fleet(scenario, engine="per-node").stats


def test_density_sweep_phase_seed_reproducible():
    """A seeded random-phase fleet is a pure function of (seed, count)."""
    assert seeded_fleet(4, 9) == seeded_fleet(4, 9)
    # A different seed draws a genuinely different set of phases.
    import random

    from repro.net.fleet import BEACON_PERIOD_S

    draws = {
        seed: [random.Random(f"{seed}:4").uniform(0.0, BEACON_PERIOD_S)
               for _ in range(4)]
        for seed in (9, 10)
    }
    assert draws[9] != draws[10]


def test_density_sweep_phase_seed_matches_manual_phases():
    import random

    from repro.net.fleet import BEACON_PERIOD_S

    rng = random.Random("9:3")
    phases = [rng.uniform(0.0, BEACON_PERIOD_S) for _ in range(3)]
    fleet = FleetChannel(3, phases=phases)
    expected = fleet.run(30.0)
    assert seeded_fleet(3, 9) == expected
