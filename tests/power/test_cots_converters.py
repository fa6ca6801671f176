"""Tests for the COTS converter models: charge pump, LDO, shunt regulator."""

import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power.base import VoltageRange
from repro.power.charge_pump import RegulatedChargePump
from repro.power.linear_regulator import LinearRegulator
from repro.power.shunt_regulator import ShuntRegulator


# -- RegulatedChargePump -------------------------------------------------------


def make_pump(**kwargs):
    defaults = dict(
        v_out=2.2,
        gains=(1.5, 2.0),
        i_quiescent=30e-6,
        i_snooze=1.5e-6,
        snooze_load_threshold=2e-3,
        input_range=VoltageRange(0.9, 1.8, owner="pump"),
    )
    defaults.update(kwargs)
    return RegulatedChargePump("pump", **defaults)


def test_pump_selects_smallest_sufficient_gain():
    pump = make_pump()
    assert pump.select_gain(1.2) == 2.0
    assert pump.select_gain(1.6) == 1.5


def test_pump_unreachable_output_rejected():
    pump = make_pump(v_out=3.8)
    with pytest.raises(ElectricalError):
        pump.select_gain(1.2)


def test_pump_input_current_is_gain_times_load_plus_quiescent():
    pump = make_pump()
    op = pump.solve(1.2, 1e-3)
    assert op.i_in == pytest.approx(2.0 * 1e-3 + 1.5e-6)
    assert op.v_out == 2.2


def test_pump_efficiency_bounded_by_voltage_ratio():
    pump = make_pump()
    op = pump.solve(1.2, 1e-3)
    assert op.efficiency <= 2.2 / 2.4 + 1e-12


def test_pump_snooze_vs_normal_quiescent():
    pump = make_pump()
    light = pump.solve(1.2, 1e-6)
    heavy = pump.solve(1.2, 5e-3)
    assert light.i_in - 2.0 * 1e-6 == pytest.approx(1.5e-6)
    assert heavy.i_in - 2.0 * 5e-3 == pytest.approx(30e-6)


def test_pump_input_range_enforced():
    pump = make_pump()
    with pytest.raises(ElectricalError):
        pump.solve(2.5, 1e-3)


def test_pump_disabled_draws_nothing():
    pump = make_pump()
    pump.disable()
    assert pump.solve(1.2, 0.0).i_in == 0.0


def test_pump_snooze_above_quiescent_rejected():
    with pytest.raises(ConfigurationError):
        make_pump(i_quiescent=1e-6, i_snooze=2e-6)


def test_pump_loss_itemisation_balances():
    pump = make_pump()
    op = pump.solve(1.2, 1e-3)
    assert op.loss_total() == pytest.approx(op.p_loss, rel=1e-9)


# -- LinearRegulator --------------------------------------------------------------


def make_ldo(**kwargs):
    defaults = dict(v_out=0.65, dropout=0.1, i_ground=1e-6, i_shutdown=2e-9,
                    i_max=10e-3)
    defaults.update(kwargs)
    return LinearRegulator("ldo", **defaults)


def test_ldo_efficiency_is_voltage_ratio_at_heavy_load():
    ldo = make_ldo()
    op = ldo.solve(0.8, 5e-3)
    # ground current is negligible vs 5 mA
    assert op.efficiency == pytest.approx(0.65 / 0.8, rel=1e-3)


def test_ldo_dropout_enforced():
    ldo = make_ldo()
    with pytest.raises(ElectricalError):
        ldo.solve(0.70, 1e-3)
    assert ldo.minimum_input_voltage() == pytest.approx(0.75)


def test_ldo_current_limit_enforced():
    ldo = make_ldo()
    with pytest.raises(ElectricalError):
        ldo.solve(0.8, 20e-3)


def test_ldo_shutdown_leakage():
    ldo = make_ldo()
    ldo.disable()
    op = ldo.solve(0.8, 0.0)
    assert op.i_in == pytest.approx(2e-9)
    assert op.v_out == 0.0


def test_ldo_ground_pin_dominates_no_load():
    ldo = make_ldo()
    op = ldo.solve(0.8, 0.0)
    assert op.i_in == pytest.approx(1e-6)


def test_ldo_psrr_attenuates_ripple():
    ldo = make_ldo(psrr_db=40.0)
    assert ldo.output_ripple(0.1) == pytest.approx(1e-3)


def test_ldo_loss_itemisation_balances():
    ldo = make_ldo()
    op = ldo.solve(0.8, 3e-3)
    assert op.loss_total() == pytest.approx(op.p_loss, rel=1e-9)


# -- ShuntRegulator -------------------------------------------------------------


def make_shunt(**kwargs):
    defaults = dict(v_out=1.0, r_series=10e3, i_bias_min=5e-6)
    defaults.update(kwargs)
    return ShuntRegulator("shunt", **defaults)


def test_shunt_supply_current_is_constant():
    shunt = make_shunt()
    light = shunt.solve(2.2, 10e-6)
    heavy = shunt.solve(2.2, 50e-6)
    assert light.i_in == heavy.i_in == pytest.approx((2.2 - 1.0) / 10e3)


def test_shunt_overload_starves_bias():
    shunt = make_shunt()
    # supply is 120 uA; load of 118 uA leaves only 2 uA < 5 uA bias floor
    with pytest.raises(ElectricalError):
        shunt.solve(2.2, 118e-6)


def test_shunt_max_load_current():
    shunt = make_shunt()
    assert shunt.max_load_current(2.2) == pytest.approx(115e-6)


def test_shunt_input_must_exceed_clamp():
    shunt = make_shunt()
    with pytest.raises(ElectricalError):
        shunt.solve(0.9, 1e-6)


def test_shunt_disabled_draws_nothing():
    shunt = make_shunt()
    shunt.disable()
    assert shunt.solve(2.2, 0.0).i_in == 0.0


def test_shunt_loss_itemisation_balances():
    shunt = make_shunt()
    op = shunt.solve(2.2, 20e-6)
    assert op.loss_total() == pytest.approx(op.p_loss, rel=1e-9)


def test_shunt_efficiency_poor_at_light_load():
    """The shunt burns constant power; light loads see terrible efficiency.

    This is exactly why the PicoCube gates this rail off between
    transmissions.
    """
    shunt = make_shunt()
    op = shunt.solve(2.2, 1e-6)
    assert op.efficiency < 0.01
