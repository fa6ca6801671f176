"""Tests for the silicon-area optimisation flow."""

import pytest

from repro.errors import ConfigurationError
from repro.power.optimizer import (
    SiliconDensities,
    minimum_area_for_efficiency,
    optimize_area_split,
)
from repro.power.topologies import doubler, step_down_3_to_2


DESIGN = dict(v_in=1.2, v_target=2.1, i_load=500e-6)


def test_area_split_returns_valid_design():
    design = optimize_area_split("x", doubler(), area_total_m2=0.3e-6, **DESIGN)
    assert 0.0 < design.cap_fraction < 1.0
    assert design.c_total > 0.0
    assert design.g_total > 0.0
    assert design.efficiency > 0.8
    assert design.area_mm2 == pytest.approx(0.3)


def test_caps_take_most_of_the_area():
    """Per-area, switches deliver conductance far more cheaply than caps
    deliver capacitance, so the optimum is cap-heavy."""
    design = optimize_area_split("x", doubler(), area_total_m2=0.3e-6, **DESIGN)
    assert design.cap_fraction > 0.6


def test_more_area_never_hurts():
    small = optimize_area_split("x", doubler(), area_total_m2=0.05e-6, **DESIGN)
    large = optimize_area_split("x", doubler(), area_total_m2=0.5e-6, **DESIGN)
    assert large.efficiency >= small.efficiency - 1e-9


def test_too_small_area_rejected():
    with pytest.raises(ConfigurationError):
        optimize_area_split("x", doubler(), area_total_m2=1e-12, **DESIGN)


def test_minimum_area_meets_target():
    design = minimum_area_for_efficiency(
        "x", doubler(), eta_target=0.84, **DESIGN
    )
    assert design.efficiency >= 0.84
    # And it is genuinely small: well under a tenth of a mm^2.
    assert design.area_mm2 < 0.1


def test_minimum_area_grows_with_target():
    """Below the carry-ability knee all targets cost the same area (the
    converter must exist before it can be efficient); above it, tighter
    targets cost more silicon."""
    relaxed = minimum_area_for_efficiency("x", doubler(), eta_target=0.80, **DESIGN)
    knee = minimum_area_for_efficiency("x", doubler(), eta_target=0.84, **DESIGN)
    strict = minimum_area_for_efficiency("x", doubler(), eta_target=0.868, **DESIGN)
    assert knee.area_total_m2 == pytest.approx(relaxed.area_total_m2, rel=0.05)
    assert strict.area_total_m2 > 1.1 * knee.area_total_m2


def test_minimum_area_heavier_load_needs_more():
    light = minimum_area_for_efficiency(
        "x", step_down_3_to_2(), v_in=1.2, v_target=0.71, i_load=1e-3,
        eta_target=0.84,
    )
    heavy = minimum_area_for_efficiency(
        "x", step_down_3_to_2(), v_in=1.2, v_target=0.71, i_load=4e-3,
        eta_target=0.84,
    )
    assert heavy.area_total_m2 > light.area_total_m2


def test_unreachable_target_rejected():
    # 2.1 V from 1.2 V through a doubler has an 87.5 % ceiling.
    with pytest.raises(ConfigurationError):
        minimum_area_for_efficiency("x", doubler(), eta_target=0.95, **DESIGN)


def test_densities_validation():
    with pytest.raises(ConfigurationError):
        SiliconDensities(cap_f_per_m2=0.0)
    with pytest.raises(ConfigurationError):
        optimize_area_split("x", doubler(), area_total_m2=0.3e-6,
                            steps=2, **DESIGN)


def test_better_cap_density_shrinks_the_design():
    baseline = minimum_area_for_efficiency("x", doubler(), eta_target=0.84, **DESIGN)
    dense = minimum_area_for_efficiency(
        "x", doubler(), eta_target=0.84,
        densities=SiliconDensities(cap_f_per_m2=20e-3), **DESIGN
    )
    assert dense.area_total_m2 < baseline.area_total_m2
