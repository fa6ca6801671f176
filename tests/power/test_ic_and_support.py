"""Tests for the converter IC, references, switches, and optimizer."""

import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power.converter_ic import ConverterIC, ConverterICConfig
from repro.power.optimizer import (
    compare_step_up_topologies,
    efficiency_curve,
    log_spaced_loads,
    optimize_fsl_fraction,
    wide_load_range_efficiency,
)
from repro.power.references import CurrentReference, SampledBandgap
from repro.power.sc_converter import design_for_load
from repro.power.switches import LevelShifter, PowerSwitch
from repro.power.topologies import all_step_up_families, doubler


# -- CurrentReference / SampledBandgap ----------------------------------------


def test_current_reference_nominal():
    ref = CurrentReference()
    assert ref.current() == pytest.approx(18e-9)


def test_current_reference_temperature_slope():
    ref = CurrentReference(temp_coefficient_per_k=2e-3)
    assert ref.current(310.0) == pytest.approx(18e-9 * 1.02)
    assert ref.current(290.0) == pytest.approx(18e-9 * 0.98)


def test_current_reference_supply_includes_mirrors():
    ref = CurrentReference(mirror_branches=4)
    assert ref.supply_current() == pytest.approx(18e-9 * 5)


def test_current_reference_power():
    ref = CurrentReference()
    assert ref.power(1.2) == pytest.approx(1.2 * ref.supply_current())
    with pytest.raises(ConfigurationError):
        ref.power(0.0)


def test_bandgap_duty_cycling_saves_current():
    bg = SampledBandgap(i_active=2e-6, t_sample=10e-6, t_period=1e-3)
    assert bg.duty == pytest.approx(0.01)
    assert bg.average_current() == pytest.approx(20e-9)
    assert bg.average_current() < bg.continuous_current()


def test_bandgap_droop_bounds():
    bg = SampledBandgap(c_hold=10e-12, i_droop=10e-12, t_sample=10e-6, t_period=1e-3)
    assert bg.droop() == pytest.approx(10e-12 * 0.99e-3 / 10e-12)
    assert bg.worst_case_reference() < bg.v_ref


def test_bandgap_invalid_timing_rejected():
    with pytest.raises(ConfigurationError):
        SampledBandgap(t_sample=2e-3, t_period=1e-3)


# -- PowerSwitch / LevelShifter --------------------------------------------------


def test_power_switch_open_passes_nothing():
    sw = PowerSwitch("pa")
    assert sw.current(1e-3) == 0.0
    assert sw.conduction_loss(1e-3) == 0.0


def test_power_switch_closed_conduction():
    sw = PowerSwitch("pa", r_on=2.0)
    sw.close()
    assert sw.current(1e-3) == 1e-3
    assert sw.voltage_drop(1e-3) == pytest.approx(2e-3)
    assert sw.conduction_loss(1e-3) == pytest.approx(2e-6)


def test_power_switch_overcurrent_rejected():
    sw = PowerSwitch("pa", i_max=1e-3)
    sw.close()
    with pytest.raises(ElectricalError):
        sw.current(2e-3)


def test_power_switch_leakage_only_when_open():
    sw = PowerSwitch("pa", i_leak_off=1e-9)
    assert sw.leakage_power(0.65) == pytest.approx(0.65e-9)
    sw.close()
    assert sw.leakage_power(0.65) == 0.0


def test_power_switch_open_drop_undefined():
    sw = PowerSwitch("pa")
    with pytest.raises(ElectricalError):
        sw.voltage_drop(1e-3)


def test_level_shifter_powers():
    shifter = LevelShifter("ls", v_high_side=2.2, v_low_side=1.0, channels=4)
    assert shifter.static_power() == pytest.approx(4 * 50e-9 * 3.2)
    assert shifter.energy_per_transition() == pytest.approx(5e-12 * 1.0)
    assert shifter.power(330e3) > shifter.static_power()


def test_level_shifter_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        LevelShifter("ls", v_high_side=2.2, v_low_side=1.0, channels=0)
    shifter = LevelShifter("ls", v_high_side=2.2, v_low_side=1.0)
    with pytest.raises(ConfigurationError):
        shifter.dynamic_power(-1.0)


# -- ConverterIC -------------------------------------------------------------------


def test_ic_quiescent_matches_paper():
    """Paper: ~6.5 uA leakage, partially attributable to the pad ring."""
    ic = ConverterIC()
    iq = ic.quiescent_current()
    assert 5.5e-6 < iq < 7.5e-6
    breakdown = ic.quiescent_breakdown()
    assert breakdown["pad-ring"] == max(breakdown.values())


def test_ic_mcu_rail_exceeds_84_percent():
    ic = ConverterIC()
    for i_load in (50e-6, 200e-6, 500e-6, 1e-3):
        assert ic.mcu_rail(1.2, i_load).efficiency > 0.84


def test_ic_radio_sc_exceeds_84_percent():
    ic = ConverterIC()
    ic.enable_radio_rail()
    assert ic.radio_converter.efficiency_at(1.2, 2e-3) > 0.84


def test_ic_radio_rail_voltage_and_gating():
    ic = ConverterIC()
    assert not ic.radio_rail_enabled
    ic.enable_radio_rail()
    assert ic.radio_rail_enabled
    op = ic.radio_rail(1.2, 2e-3)
    assert op.v_out == pytest.approx(0.65)
    ic.disable_radio_rail()
    off = ic.radio_rail(1.2, 0.0)
    assert off.i_in < 50e-9


def test_ic_radio_chain_losses_include_ldo():
    ic = ConverterIC()
    ic.enable_radio_rail()
    op = ic.radio_rail(1.2, 2e-3)
    assert any(key.startswith("ldo-") for key in op.losses)


def test_ic_quiescent_power_sub_10uW():
    ic = ConverterIC()
    assert ic.quiescent_power() < 10e-6


def test_ic_config_headroom_validation():
    with pytest.raises(ConfigurationError):
        ConverterICConfig(v_radio_intermediate=0.66, ldo_dropout=0.05)
    with pytest.raises(ConfigurationError):
        ConverterICConfig(v_mcu_rail=2.5, v_battery_nominal=1.2)


def test_ic_works_across_battery_voltage_range():
    """NiMH swings ~1.1-1.4 V in normal operation; rails must hold."""
    ic = ConverterIC()
    ic.enable_radio_rail()
    for v_batt in (1.1, 1.2, 1.3, 1.4):
        assert ic.mcu_rail(v_batt, 200e-6).v_out == pytest.approx(2.1)
        assert ic.radio_rail(v_batt, 2e-3).v_out == pytest.approx(0.65)


# -- optimizer ------------------------------------------------------------------------


def test_log_spaced_loads():
    loads = log_spaced_loads(1e-6, 1e-3, count=4)
    assert loads[0] == pytest.approx(1e-6)
    assert loads[-1] == pytest.approx(1e-3)
    ratios = [loads[i + 1] / loads[i] for i in range(3)]
    assert all(r == pytest.approx(10.0) for r in ratios)


def test_log_spaced_loads_validation():
    with pytest.raises(ConfigurationError):
        log_spaced_loads(1e-3, 1e-6)
    with pytest.raises(ConfigurationError):
        log_spaced_loads(1e-6, 1e-3, count=1)


def test_efficiency_curve_shape():
    conv = design_for_load(
        "x", doubler(), v_in=1.2, v_target=2.1, i_load_max=1e-3,
        tau_gate=2e-12, alpha_bottom_plate=0.002,
    )
    points = efficiency_curve(conv, 1.2, log_spaced_loads(1e-6, 1e-3, 10))
    assert len(points) == 10
    assert all(0.0 <= p.efficiency <= 1.0 for p in points)
    assert all(p.v_out == pytest.approx(2.1) for p in points)
    # frequency is monotone with load
    freqs = [p.f_sw for p in points]
    assert freqs == sorted(freqs)


def test_wide_load_range_efficiency():
    conv = design_for_load(
        "x", doubler(), v_in=1.2, v_target=2.1, i_load_max=1e-3,
        tau_gate=2e-12, alpha_bottom_plate=0.002, i_controller=0.35e-6,
    )
    fraction = wide_load_range_efficiency(conv, 1.2, 1e-5, 1e-3, threshold=0.8)
    assert fraction > 0.9


def test_optimize_fsl_fraction_returns_valid():
    result = optimize_fsl_fraction(
        "opt", doubler(), v_in=1.2, v_target=2.1, i_load=500e-6,
        tau_gate=2e-12, alpha_bottom_plate=0.002,
    )
    assert 0.0 < result["fsl_fraction"] < 1.0
    assert result["efficiency"] > 0.8


def test_compare_step_up_topologies():
    rows = compare_step_up_topologies(5, all_step_up_families())
    families = {row.family for row in rows}
    assert "series-parallel" in families
    assert "fibonacci" in families  # 5 is a Fibonacci ratio
    for row in rows:
        assert row.ratio == pytest.approx(5.0)
        assert row.cap_count >= 1


def test_compare_step_up_topologies_skips_impossible():
    rows = compare_step_up_topologies(4, ["fibonacci"])
    assert rows == []  # 4 is not a Fibonacci number


def test_sc_output_ripple_scaling():
    """Ripple = i / (f * C): halving the cap doubles the sawtooth."""
    ic = ConverterIC()
    ic.enable_radio_rail()
    big = ic.radio_converter.output_ripple(1.2, 2e-3, c_out=200e-9)
    small = ic.radio_converter.output_ripple(1.2, 2e-3, c_out=100e-9)
    assert small == pytest.approx(2.0 * big, rel=1e-9)


def test_radio_rail_noise_chain_meets_pa_budget():
    """Paper: the LDO post-regulator smooths the SC ripple for the RF
    section.  The residual must sit far below the millivolt class; the
    raw SC sawtooth alone would not."""
    ic = ConverterIC()
    ic.enable_radio_rail()
    noise = ic.radio_rail_noise(1.2, 4e-3, c_out=100e-9)
    assert noise["sc_ripple_pp"] > 1e-3       # raw: millivolts of sawtooth
    assert noise["residual_pp"] < 100e-6      # post-LDO: tens of uV
    attenuation = noise["sc_ripple_pp"] / noise["residual_pp"]
    assert attenuation == pytest.approx(10 ** (noise["psrr_db"] / 20.0))


def test_sc_ripple_invalid_cap_rejected():
    ic = ConverterIC()
    ic.enable_radio_rail()
    with pytest.raises(ConfigurationError):
        ic.radio_converter.output_ripple(1.2, 1e-3, c_out=0.0)
