"""Tests for the behavioral switched-capacitor converter model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, ElectricalError
from repro.power.sc_converter import SwitchedCapacitorConverter, design_for_load
from repro.power.topologies import doubler, step_down_3_to_2


def make_doubler(**kwargs):
    defaults = dict(
        c_total=2e-9,
        g_total=0.5,
        v_target=2.1,
        f_max=20e6,
        f_min=1e3,
        tau_gate=2e-12,
        alpha_bottom_plate=0.002,
        i_controller=0.35e-6,
    )
    defaults.update(kwargs)
    return SwitchedCapacitorConverter("sc-1:2", doubler(), **defaults)


def test_ratio_exposed():
    assert make_doubler().ratio == pytest.approx(2.0)


def test_rssl_scales_inversely_with_frequency():
    conv = make_doubler()
    assert conv.r_ssl(1e6) == pytest.approx(2.0 * conv.r_ssl(2e6))


def test_rout_quadrature():
    conv = make_doubler()
    f = 1e6
    assert conv.r_out(f) == pytest.approx(math.hypot(conv.r_ssl(f), conv.r_fsl))


def test_required_frequency_increases_with_load():
    conv = make_doubler()
    f_light = conv.required_frequency(1.2, 10e-6)
    f_heavy = conv.required_frequency(1.2, 1e-3)
    assert f_heavy > f_light


def test_required_frequency_floors_at_fmin():
    conv = make_doubler()
    assert conv.required_frequency(1.2, 0.0) == conv.f_min


def test_required_frequency_rejects_unreachable_target():
    conv = make_doubler()
    # 2 * 1.0 = 2.0 < 2.1 V target
    with pytest.raises(ElectricalError):
        conv.required_frequency(1.0, 1e-6)


def test_overcurrent_beyond_fsl_floor_rejected():
    conv = make_doubler(g_total=0.01)  # R_FSL = 32/0.01 = 3200 ohm
    # headroom 0.3 V / 3200 ohm ~= 94 uA maximum
    with pytest.raises(ElectricalError):
        conv.required_frequency(1.2, 1e-3)


def test_solve_regulates_target_voltage():
    conv = make_doubler()
    op = conv.solve(1.2, 500e-6)
    assert op.v_out == pytest.approx(2.1)


def test_solve_power_balance():
    conv = make_doubler()
    op = conv.solve(1.2, 500e-6)
    assert op.loss_total() == pytest.approx(op.p_loss, rel=1e-6)


def test_conduction_loss_equals_headroom_times_current():
    """PFM regulation burns exactly (M*Vin - Vtarget) * Iout in conduction."""
    conv = make_doubler()
    i_out = 200e-6
    op = conv.solve(1.2, i_out)
    assert op.losses["conduction"] == pytest.approx((2.4 - 2.1) * i_out, rel=1e-6)


def test_efficiency_below_voltage_ceiling():
    conv = make_doubler()
    op = conv.solve(1.2, 500e-6)
    assert op.efficiency < 2.1 / 2.4


def test_efficiency_peaks_in_midrange():
    conv = make_doubler()
    light = conv.efficiency_at(1.2, 0.1e-6)
    mid = conv.efficiency_at(1.2, conv.optimum_load(1.2))
    assert mid > light
    assert mid > 0.84


def test_quiescent_current_small():
    conv = make_doubler()
    iq = conv.quiescent_current(1.2)
    # controller + floor switching only: well under a microamp
    assert iq < 1e-6
    assert iq >= conv.i_controller


def test_disabled_converter_leaks_only():
    conv = make_doubler(i_leak_off=7e-9)
    conv.disable()
    op = conv.solve(1.2, 0.0)
    assert op.i_in == pytest.approx(7e-9)
    assert op.v_out == 0.0


def test_max_load_current_consistent_with_rejection():
    conv = make_doubler()
    i_max = conv.max_load_current(1.2)
    conv.solve(1.2, i_max * 0.99)  # fine
    with pytest.raises(ElectricalError):
        conv.solve(1.2, i_max * 1.01)


def test_negative_ratio_topology_rejected():
    from repro.power.scnetwork import PHASE_1, PHASE_2, SCNetwork

    inverter = SCNetwork("inverter")
    inverter.add_capacitor("c1", "t", "b")
    inverter.add_switch("s1", "t", "vin", PHASE_1)
    inverter.add_switch("s2", "b", "gnd", PHASE_1)
    inverter.add_switch("s3", "t", "gnd", PHASE_2)
    inverter.add_switch("s4", "b", "vout", PHASE_2)
    with pytest.raises(ConfigurationError):
        SwitchedCapacitorConverter(
            "bad", inverter, c_total=1e-9, g_total=0.1, v_target=1.0
        )


def test_invalid_budgets_rejected():
    with pytest.raises(ConfigurationError):
        make_doubler(c_total=0.0)
    with pytest.raises(ConfigurationError):
        make_doubler(g_total=-1.0)
    with pytest.raises(ConfigurationError):
        make_doubler(f_min=0.0)
    with pytest.raises(ConfigurationError):
        make_doubler(v_target=-1.0)


# -- design_for_load -----------------------------------------------------------


def test_design_for_load_meets_spec():
    conv = design_for_load(
        "designed",
        doubler(),
        v_in=1.2,
        v_target=2.1,
        i_load_max=1e-3,
        margin=1.5,
    )
    op = conv.solve(1.2, 1e-3)
    assert op.v_out == pytest.approx(2.1)
    assert conv.max_load_current(1.2) >= 1.5e-3 * 0.99


def test_design_for_load_3_to_2():
    conv = design_for_load(
        "designed-3:2",
        step_down_3_to_2(),
        v_in=1.2,
        v_target=0.72,
        i_load_max=5e-3,
        tau_gate=2e-12,
        alpha_bottom_plate=0.002,
    )
    op = conv.solve(1.2, 3e-3)
    assert op.v_out == pytest.approx(0.72)
    assert op.efficiency > 0.8


def test_design_for_load_invalid_target_rejected():
    with pytest.raises(ConfigurationError):
        design_for_load(
            "bad", doubler(), v_in=1.0, v_target=2.5, i_load_max=1e-3
        )


def test_design_for_load_invalid_fraction_rejected():
    with pytest.raises(ConfigurationError):
        design_for_load(
            "bad",
            doubler(),
            v_in=1.2,
            v_target=2.1,
            i_load_max=1e-3,
            fsl_fraction=1.5,
        )


# -- property tests -------------------------------------------------------------


@given(
    i_out=st.floats(min_value=1e-7, max_value=1e-3),
    v_in=st.floats(min_value=1.1, max_value=1.4),
)
def test_property_energy_conservation(i_out, v_in):
    """P_in == P_out + itemised losses at every solvable point."""
    conv = make_doubler()
    op = conv.solve(v_in, i_out)
    assert op.p_in == pytest.approx(op.p_out + op.loss_total(), rel=1e-9)


@given(i_out=st.floats(min_value=1e-7, max_value=1e-3))
def test_property_input_current_exceeds_reflected_load(i_out):
    """i_in >= M * i_out: an SC converter cannot beat charge conservation."""
    conv = make_doubler()
    op = conv.solve(1.2, i_out)
    assert op.i_in >= conv.ratio * i_out


@given(
    i_a=st.floats(min_value=1e-7, max_value=5e-4),
    i_b=st.floats(min_value=1e-7, max_value=5e-4),
)
def test_property_frequency_monotone_in_load(i_a, i_b):
    conv = make_doubler()
    f_a = conv.required_frequency(1.2, i_a)
    f_b = conv.required_frequency(1.2, i_b)
    if i_a < i_b:
        assert f_a <= f_b + 1e-9
    elif i_b < i_a:
        assert f_b <= f_a + 1e-9
