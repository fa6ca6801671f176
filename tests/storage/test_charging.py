"""Tests for trickle and voltage-limit charging policies (E8 substrate)."""

import pytest

from repro.errors import StorageError
from repro.storage.capacitors import supercapacitor
from repro.storage.charging import TrickleCharger, VoltageLimitCharger
from repro.storage.nimh import NiMHCell


def test_trickle_limit_is_c_over_10():
    charger = TrickleCharger(NiMHCell(capacity_mah=15.0))
    assert charger.current_limit == pytest.approx(1.5e-3)


def test_trickle_clamps_excess_current():
    cell = NiMHCell()
    cell.set_soc(0.5)
    charger = TrickleCharger(cell)
    report = charger.charge(current=5e-3, dt_seconds=100.0)
    assert report.coulombs_offered == pytest.approx(0.5)
    assert report.coulombs_stored == pytest.approx(1.5e-3 * 100.0)
    assert report.coulombs_clamped == pytest.approx(0.5 - 0.15)


def test_trickle_below_limit_passes_through():
    cell = NiMHCell()
    cell.set_soc(0.5)
    charger = TrickleCharger(cell)
    report = charger.charge(current=0.5e-3, dt_seconds=100.0)
    assert report.coulombs_clamped == 0.0
    assert report.coulombs_stored == pytest.approx(0.05)


def test_trickle_overcharge_at_full_becomes_heat():
    """The paper's claim: C/10 indefinitely, no charge controller needed."""
    cell = NiMHCell()
    charger = TrickleCharger(cell)
    report = charger.charge(current=1.5e-3, dt_seconds=3600.0)
    assert cell.soc == pytest.approx(1.0)
    assert report.coulombs_stored == 0.0
    assert report.heat_joules > 0.0


def test_trickle_indefinite_safety_predicate():
    charger = TrickleCharger(NiMHCell(capacity_mah=15.0))
    assert charger.is_safe_indefinitely(1.0e-3)
    assert charger.is_safe_indefinitely(1.5e-3)
    assert not charger.is_safe_indefinitely(2.0e-3)


def test_trickle_accumulates_totals():
    cell = NiMHCell()
    cell.set_soc(0.0)
    charger = TrickleCharger(cell)
    charger.charge(current=3e-3, dt_seconds=10.0)
    charger.charge(current=3e-3, dt_seconds=10.0)
    assert charger.total_stored_coulombs == pytest.approx(2 * 1.5e-3 * 10.0)
    assert charger.total_clamped_coulombs == pytest.approx(2 * 1.5e-3 * 10.0)


def test_trickle_invalid_inputs_rejected():
    charger = TrickleCharger(NiMHCell())
    with pytest.raises(StorageError):
        charger.charge(current=-1.0, dt_seconds=1.0)
    with pytest.raises(StorageError):
        charger.charge(current=1.0, dt_seconds=-1.0)
    with pytest.raises(StorageError):
        TrickleCharger(NiMHCell(), rate_limit_fraction=0.0)


def test_voltage_limit_charger_stops_at_limit():
    cap = supercapacitor(capacitance=1.0, v_rated=2.5, mass_grams=1.0)
    cap.set_soc(0.0)
    charger = VoltageLimitCharger(cap, v_limit=2.0)
    charger.charge(current=1.0, dt_seconds=10.0)  # 10 C offered, 2 C to limit
    assert cap.open_circuit_voltage() == pytest.approx(2.0, abs=1e-6)
    assert charger.total_shed_coulombs > 0.0


def test_voltage_limit_charger_no_charge_when_at_limit():
    cap = supercapacitor(capacitance=1.0, v_rated=2.5, mass_grams=1.0)
    cap.set_soc(0.8)  # 2.0 V
    charger = VoltageLimitCharger(cap, v_limit=2.0)
    report = charger.charge(current=1.0, dt_seconds=5.0)
    assert report.coulombs_stored == 0.0
    assert report.coulombs_clamped == pytest.approx(5.0)


def test_voltage_limit_charger_partial_fill():
    cap = supercapacitor(capacitance=1.0, v_rated=2.5, mass_grams=1.0)
    cap.set_soc(0.0)
    charger = VoltageLimitCharger(cap, v_limit=2.0)
    report = charger.charge(current=0.1, dt_seconds=5.0)  # 0.5 C, stays below
    assert report.coulombs_stored == pytest.approx(0.5)
    assert report.coulombs_clamped == 0.0


def test_voltage_limit_charger_validation():
    with pytest.raises(StorageError):
        VoltageLimitCharger(supercapacitor(), v_limit=0.0)
    charger = VoltageLimitCharger(supercapacitor(), v_limit=2.0)
    with pytest.raises(StorageError):
        charger.charge(current=-1.0, dt_seconds=1.0)
