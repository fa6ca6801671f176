"""Tests for the adaptive duty-cycling policy."""

import pytest

from repro.core.builder import build_motion_node
from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.core.policy import DEFAULT_LADDER, AdaptiveScheduler, PolicyRung
from repro.errors import ConfigurationError
from repro.storage.nimh import NiMHCell


def make_node(soc=0.6, capacity_mah=15.0):
    cell = NiMHCell(capacity_mah=capacity_mah)
    cell.set_soc(soc)
    return PicoCube(NodeConfig(), battery=cell)


def test_default_ladder_shape():
    socs = [r.soc for r in DEFAULT_LADDER]
    periods = [r.period_s for r in DEFAULT_LADDER]
    assert socs == sorted(socs, reverse=True)
    assert periods == sorted(periods)
    assert DEFAULT_LADDER[0].period_s == 6.0


def test_healthy_node_stays_at_full_rate():
    node = make_node(soc=0.6)
    scheduler = AdaptiveScheduler(node)
    node.run(3600.0)
    assert not scheduler.throttled
    assert scheduler.current_period_s == 6.0
    assert node.cycles_completed == pytest.approx(599, abs=1)


def test_low_soc_throttles():
    node = make_node(soc=0.3)
    scheduler = AdaptiveScheduler(node, supervision_period_s=30.0)
    node.run(600.0)
    assert scheduler.throttled
    assert scheduler.current_period_s == 30.0
    assert scheduler.throttle_events >= 1


def test_deeply_drained_node_hits_survival_rung():
    node = make_node(soc=0.15)
    scheduler = AdaptiveScheduler(node, supervision_period_s=30.0)
    node.run(600.0)
    assert scheduler.current_period_s == 120.0


def test_nearly_dead_node_hits_last_gasp_rung():
    # Note: the *default* ladder's 600 s rung is academic on the COTS
    # train — below ~8 % SoC the 1.10 V cell cannot feed the charge pump
    # at all (2 x 1.10 < 2.25 V) and the node browns out first.  A custom
    # ladder with higher thresholds exercises the bottom rung.
    node = make_node(soc=0.15)
    ladder = [
        PolicyRung(0.40, 6.0),
        PolicyRung(0.30, 30.0),
        PolicyRung(0.20, 120.0),
        PolicyRung(0.00, 600.0),
    ]
    scheduler = AdaptiveScheduler(node, ladder=ladder,
                                  supervision_period_s=30.0)
    node.run(1200.0)
    assert scheduler.current_period_s == 600.0
    assert not node.browned_out


def test_recovery_requires_hysteresis():
    node = make_node(soc=0.3)
    scheduler = AdaptiveScheduler(node, supervision_period_s=30.0,
                                  hysteresis=0.03)
    node.run(120.0)
    assert scheduler.throttled
    # Recharge just to the rung threshold: not enough (hysteresis).
    node.battery.set_soc(0.41)
    node.run(60.0)
    assert scheduler.throttled
    # Clear the threshold by more than the hysteresis: recovers.
    node.battery.set_soc(0.46)
    node.run(60.0)
    assert not scheduler.throttled
    assert scheduler.recover_events == 1


def test_throttling_slows_the_sample_stream():
    fast = make_node(soc=0.6)
    slow = make_node(soc=0.3)
    AdaptiveScheduler(fast, supervision_period_s=30.0)
    AdaptiveScheduler(slow, supervision_period_s=30.0)
    fast.run(1800.0)
    slow.run(1800.0)
    assert slow.cycles_completed < 0.3 * fast.cycles_completed


def test_supervisor_stops_after_brownout():
    cell = NiMHCell(capacity_mah=0.02)
    cell.set_soc(0.3)
    node = PicoCube(NodeConfig(), battery=cell)
    scheduler = AdaptiveScheduler(node, supervision_period_s=60.0)
    node.run(12 * 3600.0)
    assert node.browned_out
    assert not scheduler._supervisor.running


def test_ladder_validation():
    node = make_node()
    with pytest.raises(ConfigurationError):
        AdaptiveScheduler(node, ladder=[])
    with pytest.raises(ConfigurationError):
        AdaptiveScheduler(node, ladder=[PolicyRung(0.4, 6.0)])  # no 0 rung
    with pytest.raises(ConfigurationError):
        AdaptiveScheduler(
            node,
            ladder=[PolicyRung(0.4, 60.0), PolicyRung(0.0, 6.0)],  # inverted
        )


def test_rung_validation():
    with pytest.raises(ConfigurationError):
        PolicyRung(soc=1.5, period_s=6.0)
    with pytest.raises(ConfigurationError):
        PolicyRung(soc=0.5, period_s=0.0)


def test_motion_node_rejected():
    with pytest.raises(ConfigurationError):
        AdaptiveScheduler(build_motion_node())
