"""Tests for the scenario builders."""

import pytest

from repro.core.builder import (
    build_demo_bench,
    build_motion_node,
    build_tpms_deployment,
    build_tpms_node,
)
from repro.harvest.tire import DriveCycle, DriveSegment
from repro.sensors.environment import MotionInterval, TireEnvironment


def test_build_tpms_node_defaults():
    node = build_tpms_node()
    assert node.config.sensor_kind == "tpms"
    assert node.config.power_train == "cots"
    assert node.sensor.wake_period_s == 6.0


def test_build_tpms_node_custom_environment():
    env = TireEnvironment(cold_pressure_psi=40.0)
    node = build_tpms_node(environment=env)
    assert node.environment is env


def test_build_motion_node_intervals_respected():
    node = build_motion_node(intervals=[MotionInterval(3.0, 4.0)])
    assert node.config.sensor_kind == "accel"
    assert node.environment.intervals[0].start_s == 3.0


def test_build_demo_bench_hears_at_one_metre():
    bench = build_demo_bench()
    assert bench.link.budget(1.0).closes


def test_deployment_charging_fn_follows_segments():
    cycle = DriveCycle(
        "two-phase",
        [DriveSegment(600.0, 80.0), DriveSegment(600.0, 0.0)],
    )
    deployment = build_tpms_deployment(cycle=cycle)
    fn = deployment.node._charge_current_fn
    assert fn(100.0) > 100e-6     # driving at 80 km/h: strong charge
    assert fn(700.0) == 0.0       # parked: nothing
    # Wraps around the cycle.
    assert fn(1300.0) == fn(100.0)


def test_deployment_speed_updater_tracks_cycle():
    cycle = DriveCycle(
        "two-phase",
        [DriveSegment(600.0, 80.0), DriveSegment(600.0, 0.0)],
    )
    deployment = build_tpms_deployment(cycle=cycle, harvest_update_s=60.0)
    node = deployment.node
    node.run(300.0)
    assert node.environment.speed_kmh == 80.0
    node.run(400.0)
    assert node.environment.speed_kmh == 0.0


def test_deployment_charging_respects_trickle_limit():
    deployment = build_tpms_deployment(harvest_update_s=300.0)
    node = deployment.node
    node.run(2400.0)  # includes the highway segment (harvest >> C/10)
    assert node._charger.total_clamped_coulombs > 0.0
    assert node.battery.soc <= 1.0


def test_deployment_nodes_share_engine_wiring():
    deployment = build_tpms_deployment()
    assert deployment.node._charge_timer is not None
    assert deployment.harvester.wheel_radius_m == pytest.approx(0.30)
