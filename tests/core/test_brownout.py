"""Tests for the node's brownout semantics."""

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.storage.nimh import NiMHCell


def tiny_battery(capacity_mah=0.05, soc=0.6):
    cell = NiMHCell(capacity_mah=capacity_mah)
    cell.set_soc(soc)
    return cell


def test_node_browns_out_when_battery_dies():
    node = PicoCube(NodeConfig(), battery=tiny_battery())
    node.run(15 * 3600.0)
    assert node.browned_out
    assert node.brownout_time is not None
    assert node.brownout_time < 15 * 3600.0


def test_brownout_happens_during_a_radio_burst():
    """The burst is the heaviest load: the sagging cell dies there first,
    while charge is still on the plate — a voltage collapse, not coulomb
    exhaustion."""
    node = PicoCube(NodeConfig(), battery=tiny_battery())
    node.run(15 * 3600.0)
    assert node.battery.soc > 0.01  # charge remained; voltage gave out


def test_brownout_stops_all_consumption():
    node = PicoCube(NodeConfig(), battery=tiny_battery())
    node.run(15 * 3600.0)
    assert node.recorder.total_trace().current == 0.0
    cycles_at_death = node.cycles_completed
    node.run(3600.0)
    assert node.cycles_completed == cycles_at_death
    assert node.battery_current_now == 0.0


def test_brownout_stops_wake_timer():
    node = PicoCube(NodeConfig(), battery=tiny_battery())
    node.run(15 * 3600.0)
    assert not node._wake_timer.running


def test_healthy_battery_never_browns_out():
    node = PicoCube(NodeConfig())
    node.run(24 * 3600.0)
    assert not node.browned_out


def test_harvester_prevents_brownout():
    cell = tiny_battery(capacity_mah=0.2, soc=0.6)
    node = PicoCube(NodeConfig(), battery=cell)
    node.attach_charger(lambda t: 20e-6, update_period_s=60.0)
    node.run(24 * 3600.0)
    assert not node.browned_out
    assert node.cycles_completed > 14000


def test_brownout_time_before_or_at_detection():
    node = PicoCube(NodeConfig(), battery=tiny_battery())
    node.run(15 * 3600.0)
    assert node.brownout_time <= node.engine.now


def test_lifetime_scales_with_capacity():
    short = PicoCube(NodeConfig(), battery=tiny_battery(capacity_mah=0.05))
    long = PicoCube(NodeConfig(), battery=tiny_battery(capacity_mah=0.1))
    short.run(40 * 3600.0)
    long.run(40 * 3600.0)
    assert short.browned_out and long.browned_out
    assert long.brownout_time > 1.5 * short.brownout_time
