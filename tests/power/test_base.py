"""Tests for converter base abstractions."""

import pytest

from repro.errors import ConfigurationError, ElectricalError
from repro.power.base import (
    IdealConverter,
    OperatingPoint,
    VoltageRange,
    series_efficiency,
)


def test_operating_point_powers():
    op = OperatingPoint(v_in=1.2, v_out=2.4, i_in=2.0e-3, i_out=0.9e-3)
    assert op.p_in == pytest.approx(2.4e-3)
    assert op.p_out == pytest.approx(2.16e-3)
    assert op.p_loss == pytest.approx(0.24e-3)
    assert op.efficiency == pytest.approx(0.9)


def test_operating_point_zero_input_efficiency():
    op = OperatingPoint(v_in=1.2, v_out=0.0, i_in=0.0, i_out=0.0)
    assert op.efficiency == 0.0


def test_operating_point_loss_total():
    op = OperatingPoint(
        v_in=1.0, v_out=0.5, i_in=1.0, i_out=1.0, losses={"a": 0.3, "b": 0.2}
    )
    assert op.loss_total() == pytest.approx(0.5)
    assert op.loss_total() == pytest.approx(op.p_loss)


def test_voltage_range_check_and_clamp():
    window = VoltageRange(2.1, 3.6, owner="mcu")
    window.check(2.5)
    assert window.contains(2.1)
    assert window.contains(3.6)
    assert not window.contains(2.0)
    assert window.clamp(5.0) == 3.6
    assert window.clamp(1.0) == 2.1
    with pytest.raises(ElectricalError):
        window.check(1.9)


def test_voltage_range_reversed_rejected():
    with pytest.raises(ConfigurationError):
        VoltageRange(3.0, 2.0)


def test_series_efficiency_product():
    assert series_efficiency(0.9, 0.8) == pytest.approx(0.72)


def test_series_efficiency_invalid_stage():
    with pytest.raises(ConfigurationError):
        series_efficiency(0.9, 1.2)


def test_ideal_converter_lossless():
    conv = IdealConverter("ideal", v_out_nominal=2.4)
    op = conv.solve(1.2, 1e-3)
    assert op.efficiency == pytest.approx(1.0)
    assert op.i_in == pytest.approx(2e-3)
    assert op.v_out == 2.4


def test_ideal_converter_disabled_draws_nothing():
    conv = IdealConverter("ideal", v_out_nominal=2.4)
    conv.disable()
    op = conv.solve(1.2, 1e-3)
    assert op.i_in == 0.0
    assert op.v_out == 0.0
    conv.enable()
    assert conv.solve(1.2, 1e-3).v_out == 2.4


def test_ideal_converter_rejects_negative_load():
    conv = IdealConverter("ideal", v_out_nominal=2.4)
    with pytest.raises(ElectricalError):
        conv.solve(1.2, -1e-3)


def test_ideal_converter_rejects_bad_input_voltage():
    conv = IdealConverter("ideal", v_out_nominal=2.4)
    with pytest.raises(ElectricalError):
        conv.solve(0.0, 1e-3)


def test_ideal_converter_input_range_enforced():
    conv = IdealConverter(
        "ideal", v_out_nominal=2.4, input_range=VoltageRange(1.0, 1.5, owner="x")
    )
    with pytest.raises(ElectricalError):
        conv.solve(2.0, 1e-3)


def test_quiescent_current_default_via_solve():
    conv = IdealConverter("ideal", v_out_nominal=2.4)
    assert conv.quiescent_current(1.2) == 0.0
