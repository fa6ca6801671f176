"""Tests for the COTS and IC power trains."""

import pytest

from repro.core.power_train import (
    CotsPowerTrain,
    IcPowerTrain,
    LoadState,
    make_power_train,
)
from repro.power.rail_topologies import V_RADIO_DIGITAL, V_RADIO_RF
from repro.errors import ConfigurationError, ElectricalError


SLEEP = LoadState(i_mcu=0.7e-6, i_sensor=0.3e-6)
ACTIVE = LoadState(i_mcu=250e-6, i_sensor=450e-6)
TX = LoadState(i_mcu=250e-6, i_sensor=0.3e-6, i_radio_digital=50e-6,
               i_radio_rf=4.0e-3)


def test_factory_dispatch():
    assert isinstance(make_power_train("cots"), CotsPowerTrain)
    assert isinstance(make_power_train("ic"), IcPowerTrain)
    with pytest.raises(ConfigurationError):
        make_power_train("steam")


def test_load_state_rejects_negative():
    with pytest.raises(ConfigurationError):
        LoadState(i_mcu=-1e-6)


@pytest.mark.parametrize("kind", ["cots", "ic"])
def test_sleep_draw_is_microamps(kind):
    train = make_power_train(kind)
    solution = train.solve(1.25, SLEEP)
    assert solution.i_battery < 12e-6
    assert solution.i_battery > 0.5e-6


def test_cots_sleep_power_near_paper_budget():
    """Sleep floor must land in the ~4-5 uW region that yields 6 uW average."""
    train = make_power_train("cots")
    solution = train.solve(1.25, SLEEP)
    assert 2e-6 < solution.p_battery < 7e-6


@pytest.mark.parametrize("kind", ["cots", "ic"])
def test_radio_load_without_enable_rejected(kind):
    train = make_power_train(kind)
    with pytest.raises(ElectricalError):
        train.solve(1.25, TX)


@pytest.mark.parametrize("kind", ["cots", "ic"])
def test_radio_enable_disable_cycle(kind):
    train = make_power_train(kind)
    train.enable_radio()
    tx = train.solve(1.25, TX)
    # The PA reflected to the battery: >2.5 mW regardless of train (the
    # IC's 3:2 step-down draws *less current* than the load — that is the
    # point — so assert on power, not current).
    assert tx.p_battery > 2.5e-3
    train.disable_radio()
    sleep = train.solve(1.25, SLEEP)
    assert sleep.i_battery < 12e-6


@pytest.mark.parametrize("kind", ["cots", "ic"])
def test_management_power_non_negative_and_attributed(kind):
    train = make_power_train(kind)
    solution = train.solve(1.25, ACTIVE)
    assert solution.p_management >= 0.0
    assert solution.subsystem_power["mcu"] == pytest.approx(
        train.mcu_rail_voltage() * ACTIVE.i_mcu
    )
    assert solution.p_battery == pytest.approx(
        sum(solution.subsystem_power.values()) + solution.p_management
    )


def test_management_dominates_at_sleep():
    """The paper's punchline: PM overhead exceeds the delivered power."""
    train = make_power_train("cots")
    solution = train.solve(1.25, SLEEP)
    delivered = sum(solution.subsystem_power.values())
    assert solution.p_management > 0.5 * delivered


def test_cots_sequencing_switches():
    train = CotsPowerTrain()
    assert not train.input_switch.closed
    train.enable_radio()
    assert train.input_switch.closed and train.output_switch.closed
    train.disable_radio()
    assert not train.input_switch.closed and not train.output_switch.closed


def test_ic_standing_current_near_6p5_uA():
    train = IcPowerTrain()
    solution = train.solve(1.2, LoadState())
    assert 5e-6 < solution.i_battery < 8e-6


def test_ic_vs_cots_rail_voltages():
    assert CotsPowerTrain().mcu_rail_voltage() == pytest.approx(2.2)
    assert IcPowerTrain().mcu_rail_voltage() == pytest.approx(2.1)
    assert V_RADIO_DIGITAL == 1.0
    assert V_RADIO_RF == 0.65


def test_radio_subsystem_power_accounting():
    train = make_power_train("cots")
    train.enable_radio()
    solution = train.solve(1.25, TX)
    assert solution.subsystem_power["radio-rf"] == pytest.approx(0.65 * 4.0e-3)
    assert solution.subsystem_power["radio-digital"] == pytest.approx(1.0 * 50e-6)


def test_efficiency_rf_chain_cots_vs_ic():
    """The IC's 3:2 + LDO chain beats the COTS battery-direct LDO.

    COTS: 0.65 V from 1.25 V linearly = 52 % ceiling.  IC: SC step-down
    then a short-drop LDO, ~75-80 %.
    """
    loads = LoadState(i_radio_rf=4.0e-3)
    results = {}
    for kind in ("cots", "ic"):
        train = make_power_train(kind)
        train.enable_radio()
        solution = train.solve(1.25, loads)
        delivered = solution.subsystem_power["radio-rf"]
        # Charge the RF chain with everything beyond the no-load draw.
        idle = train.solve(1.25, LoadState()).p_battery
        results[kind] = delivered / (solution.p_battery - idle)
    assert results["ic"] > results["cots"]


def test_set_gate_rejects_a_gate_the_topology_does_not_define():
    train = make_power_train("cots")
    with pytest.raises(ConfigurationError,
                       match="no gate group 'radoi'; gates: radio"):
        train.set_gate("radoi", True)
    assert train._open_gates == frozenset()
    train.set_gate("radio", True)
    assert train._open_gates == frozenset({"radio"})


def test_radio_sequencing_skips_a_topology_without_a_radio_gate():
    from repro.core.power_train import GraphPowerTrain
    from repro.power.graph import ChargePumpSpec, LoadTapSpec, RailGraphSpec
    from repro.power.graph import SourceSpec

    taps = tuple(
        LoadTapSpec(name=f"{channel}-tap", parent="pump", channel=channel,
                    v_rail=2.2)
        for channel in ("mcu", "sensor", "radio-digital", "radio-rf")
    )
    train = GraphPowerTrain(RailGraphSpec(
        name="ungated", description="no gate groups",
        components=(SourceSpec(name="battery"),
                    ChargePumpSpec(name="pump", parent="battery")) + taps,
    ))
    train.enable_radio()
    assert train.radio_enabled and train._open_gates == frozenset()
    assert train.solve(1.25, TX).i_battery > 0.0
    train.disable_radio()
    assert not train.radio_enabled
    with pytest.raises(ConfigurationError, match=r"gates: \(none\)"):
        train.set_gate("radio", True)
