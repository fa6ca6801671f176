"""Determinism and cross-fidelity invariants of the node simulation.

The benchmarks diff regenerated series against the paper's shapes, so two
runs of the same scenario must agree to the last bit, and the fast and
profile transmit models must conserve the same energy.
"""

import pytest

from repro.core.builder import build_tpms_deployment
from repro.core.config import NodeConfig
from repro.core.node import PicoCube


def run_node(**kwargs):
    node = PicoCube(NodeConfig(**kwargs))
    node.run(120.0)
    return node


def test_identical_runs_identical_traces():
    a = run_node()
    b = run_node()
    for channel in a.recorder.channel_names():
        assert (
            a.recorder.channel(channel).breakpoints()
            == b.recorder.channel(channel).breakpoints()
        ), channel


def test_identical_runs_identical_packets():
    a = run_node()
    b = run_node()
    assert a.packets_sent == b.packets_sent


def test_identical_runs_identical_battery_state():
    a = run_node()
    b = run_node()
    assert a.battery.charge == b.battery.charge


def test_split_run_equals_single_run():
    """run(60)+run(60) must equal run(120) exactly."""
    whole = PicoCube(NodeConfig())
    whole.run(120.0)
    split = PicoCube(NodeConfig())
    split.run(60.0)
    split.run(60.0)
    assert split.battery.charge == pytest.approx(whole.battery.charge, rel=1e-12)
    assert split.cycles_completed == whole.cycles_completed
    assert split.recorder.total_energy() == pytest.approx(
        whole.recorder.total_energy(), rel=1e-12
    )


def test_battery_energy_books_balance():
    """Battery charge removed == integral of the recorded battery current.

    The recorder tracks power at the battery; dividing each channel's
    energy by the (nearly constant) terminal voltage recovers the charge
    the battery actually lost.
    """
    node = PicoCube(NodeConfig())
    charge_before = node.battery.charge
    node.run(600.0)
    drained = charge_before - node.battery.charge
    # Self-discharge is part of the drain but not of the recorder's books.
    cell_check = type(node.battery)()
    cell_check.set_soc(0.6)
    cell_check.set_temperature(node.ambient_c())
    cell_check.apply_self_discharge(600.0)
    self_discharge = 0.6 * cell_check.capacity_coulombs - cell_check.charge
    recorded_energy = node.recorder.total_energy()
    v_nominal = node.battery.open_circuit_voltage()
    recorded_charge = recorded_energy / v_nominal
    assert drained - self_discharge == pytest.approx(recorded_charge, rel=0.02)


def test_deployment_runs_deterministic():
    a = build_tpms_deployment()
    b = build_tpms_deployment()
    a.node.run(1800.0)
    b.node.run(1800.0)
    assert a.node.battery.charge == b.node.battery.charge
    assert a.node.cycles_completed == b.node.cycles_completed
