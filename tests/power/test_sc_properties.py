"""Property-based tests for the SC analysis and converter design flow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.power.sc_converter import design_for_load
from repro.power.topologies import (
    dickson_step_up,
    fractional_step_up,
    ladder_step_up,
    series_parallel_step_down,
    series_parallel_step_up,
)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=7))
def test_property_sp_step_up_exact_ratio(n):
    analysis = series_parallel_step_up(n).analyze()
    assert analysis.ratio == pytest.approx(float(n), abs=1e-8)
    assert analysis.input_charge == pytest.approx(float(n), abs=1e-7)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=7))
def test_property_step_up_down_are_inverses(n):
    up = series_parallel_step_up(n).analyze()
    down = series_parallel_step_down(n).analyze()
    assert up.ratio * down.ratio == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=6))
def test_property_fractional_ratios(n):
    analysis = fractional_step_up(n).analyze()
    assert analysis.ratio == pytest.approx((n + 1) / n, abs=1e-8)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=6))
def test_property_charge_balance_all_families(n):
    """q_in = M q_out in every family the generators produce."""
    for build in (series_parallel_step_up, dickson_step_up, ladder_step_up):
        analysis = build(n).analyze()
        assert analysis.input_charge == pytest.approx(
            analysis.ratio, abs=1e-6
        ), build.__name__


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(min_value=1e-10, max_value=1e-7),
    f=st.floats(min_value=1e4, max_value=1e8),
    g=st.floats(min_value=1e-2, max_value=1e2),
)
def test_property_impedance_scaling_laws(c, f, g):
    """R_SSL ~ 1/(Cf), R_FSL ~ 1/G — exact inverse scaling."""
    analysis = series_parallel_step_up(3).analyze()
    assert analysis.r_ssl(2.0 * c, f) == pytest.approx(
        analysis.r_ssl(c, f) / 2.0, rel=1e-9
    )
    assert analysis.r_ssl(c, 2.0 * f) == pytest.approx(
        analysis.r_ssl(c, f) / 2.0, rel=1e-9
    )
    assert analysis.r_fsl(2.0 * g) == pytest.approx(
        analysis.r_fsl(g) / 2.0, rel=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(
    v_target=st.floats(min_value=1.9, max_value=2.3),
    i_load=st.floats(min_value=1e-5, max_value=3e-3),
)
def test_property_design_for_load_meets_spec(v_target, i_load):
    """Whatever the spec, the sized converter regulates it at full load."""
    from repro.power.topologies import doubler

    converter = design_for_load(
        "prop", doubler(), v_in=1.2, v_target=v_target, i_load_max=i_load,
        tau_gate=1.5e-12, alpha_bottom_plate=0.0015,
    )
    op = converter.solve(1.2, i_load)
    assert op.v_out == pytest.approx(v_target)
    assert op.efficiency > 0.5
    assert converter.max_load_current(1.2) >= i_load


@settings(max_examples=20, deadline=None)
@given(
    i_a=st.floats(min_value=1e-6, max_value=1e-3),
    i_b=st.floats(min_value=1e-6, max_value=1e-3),
)
def test_property_input_power_monotone_in_load(i_a, i_b):
    from repro.power.topologies import doubler

    converter = design_for_load(
        "mono", doubler(), v_in=1.2, v_target=2.1, i_load_max=2e-3,
        tau_gate=1.5e-12, alpha_bottom_plate=0.0015,
    )
    p_a = converter.solve(1.2, i_a).p_in
    p_b = converter.solve(1.2, i_b).p_in
    if i_a < i_b:
        assert p_a <= p_b + 1e-12
    elif i_b < i_a:
        assert p_b <= p_a + 1e-12
