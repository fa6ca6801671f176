"""Tests for the variable-ratio (gear-hopping) converter bank."""

import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power.topologies import doubler, fractional_step_up
from repro.power.variable_ratio import VariableRatioConverter, standard_gearbox


def make_bank(**kwargs):
    defaults = dict(v_target=2.1, i_load_max=1e-3, v_in_range=(1.1, 2.8))
    defaults.update(kwargs)
    return VariableRatioConverter("bank", **defaults)


def test_fractional_step_up_ratios():
    for n, expected in ((1, 2.0), (2, 1.5), (3, 4.0 / 3.0)):
        assert fractional_step_up(n).analyze().ratio == pytest.approx(expected)


def test_fractional_step_up_validation():
    with pytest.raises(ConfigurationError):
        fractional_step_up(0)


def test_gearbox_contains_useful_ladder():
    ratios = sorted(
        round(net.analyze().ratio, 3) for net in standard_gearbox()
    )
    assert ratios == [
        pytest.approx(1 / 3, abs=1e-3),
        pytest.approx(0.5),
        pytest.approx(2 / 3, abs=1e-3),
        pytest.approx(1.0),
        pytest.approx(4 / 3, abs=1e-3),
        pytest.approx(1.5),
        pytest.approx(2.0),
        pytest.approx(3.0),
    ]


def test_bank_drops_unusable_gears():
    """Step-down gears can never make 2.1 V below 2.8 V input: dropped."""
    bank = make_bank()
    assert min(bank.available_ratios()) >= 1.0 - 1e-9


def test_bank_selects_lowest_workable_ratio():
    bank = make_bank()
    assert bank.select_gear(1.2).ratio == pytest.approx(2.0)
    assert bank.select_gear(1.5).ratio == pytest.approx(1.5)
    assert bank.select_gear(2.4).ratio == pytest.approx(1.0)


def test_bank_regulates_target_across_range():
    bank = make_bank()
    for v_in in (1.1, 1.4, 1.8, 2.2, 2.6, 2.8):
        op = bank.solve(v_in, 300e-6)
        assert op.v_out == pytest.approx(2.1)


def test_bank_beats_fixed_ratio_over_wide_input():
    """The whole point: worst-case efficiency across a 1.1-2.8 V swing."""
    from repro.power.sc_converter import design_for_load

    bank = make_bank()
    fixed = design_for_load(
        "fixed", doubler(), v_in=1.1, v_target=2.1, i_load_max=1e-3,
        tau_gate=1.5e-12, alpha_bottom_plate=0.0015,
    )
    inputs = [1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.8]
    bank_worst = min(bank.solve(v, 500e-6).efficiency for v in inputs)
    fixed_worst = min(fixed.solve(v, 500e-6).efficiency for v in inputs)
    assert bank_worst > fixed_worst + 0.2


def test_bank_efficiency_ceiling_quantisation():
    bank = make_bank()
    # Right after a gear boundary the ceiling is near 1/headroom.
    assert bank.efficiency_ceiling(1.44) > 0.92  # 1.5 gear just engaged
    # Just before the next gear takes over, the ceiling is at its lowest.
    assert bank.efficiency_ceiling(1.42) < 0.80  # still on the 2.0 gear


def test_bank_counts_gear_changes():
    bank = make_bank()
    bank.solve(1.2, 100e-6)
    bank.solve(1.2, 100e-6)  # same gear: no change
    bank.solve(2.5, 100e-6)
    assert bank.gear_changes == 2


def test_bank_out_of_range_input_rejected():
    bank = make_bank()
    with pytest.raises(ElectricalError):
        bank.solve(0.8, 100e-6)
    with pytest.raises(ElectricalError):
        bank.solve(3.2, 100e-6)


def test_bank_disabled_draws_nothing():
    bank = make_bank()
    bank.disable()
    op = bank.solve(1.2, 0.0)
    assert op.i_in == 0.0


def test_bank_validation():
    with pytest.raises(ConfigurationError):
        make_bank(v_target=-1.0)
    with pytest.raises(ConfigurationError):
        make_bank(v_in_range=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        make_bank(headroom=0.9)


def test_bank_impossible_target_rejected():
    with pytest.raises(ConfigurationError):
        # 3x max gear from 0.3 V max input cannot reach 2.1 V.
        make_bank(v_in_range=(0.2, 0.3))


def test_bank_energy_conservation():
    bank = make_bank()
    for v_in in (1.2, 1.6, 2.4):
        op = bank.solve(v_in, 400e-6)
        assert op.p_in == pytest.approx(op.p_out + op.loss_total(), rel=1e-9)
