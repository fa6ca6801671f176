"""Tests for energy-storage models: NiMH, capacitors, thin-film."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage.capacitors import ceramic_capacitor, supercapacitor
from repro.storage.nimh import DEFAULT_OCV_CURVE, NiMHCell
from repro.storage.thin_film import ThinFilmCell, ThinFilmStack
from repro.units import DAY


# -- NiMH ------------------------------------------------------------------


def test_nimh_capacity_in_coulombs():
    cell = NiMHCell(capacity_mah=15.0)
    assert cell.capacity_coulombs == pytest.approx(54.0)


def test_nimh_starts_full():
    assert NiMHCell().soc == pytest.approx(1.0)


def test_nimh_flat_discharge_plateau():
    """OCV varies <10 % between 20 % and 95 % state of charge."""
    cell = NiMHCell()
    cell.set_soc(0.95)
    v_high = cell.open_circuit_voltage()
    cell.set_soc(0.20)
    v_low = cell.open_circuit_voltage()
    assert (v_high - v_low) / v_high < 0.10


def test_nimh_knee_near_empty():
    cell = NiMHCell()
    cell.set_soc(0.02)
    assert cell.open_circuit_voltage() < 1.05


def test_nimh_nominal_voltage_mid_charge():
    cell = NiMHCell()
    cell.set_soc(0.5)
    assert cell.open_circuit_voltage() == pytest.approx(1.25, abs=0.05)


def test_nimh_energy_density_matches_paper():
    """Paper: ~220 J/g for NiMH."""
    cell = NiMHCell()
    assert cell.energy_density() == pytest.approx(220.0, rel=0.1)


def test_nimh_internal_resistance_rises_near_empty():
    cell = NiMHCell()
    cell.set_soc(0.5)
    r_mid = cell.internal_resistance()
    cell.set_soc(0.05)
    assert cell.internal_resistance() > 2.0 * r_mid


def test_nimh_terminal_voltage_under_load():
    cell = NiMHCell(r_internal=1.5)
    cell.set_soc(0.5)
    ocv = cell.open_circuit_voltage()
    assert cell.terminal_voltage(10e-3) == pytest.approx(ocv - 0.015)


def test_nimh_discharge_and_charge_bookkeeping():
    cell = NiMHCell()
    cell.discharge(10.0)
    assert cell.charge == pytest.approx(44.0)
    cell.charge_by(5.0)
    assert cell.charge == pytest.approx(49.0)


def test_nimh_overdischarge_rejected():
    cell = NiMHCell()
    with pytest.raises(StorageError):
        cell.discharge(100.0)


def test_nimh_charge_by_clips_at_full():
    cell = NiMHCell()
    assert cell.charge_by(10.0) == 0.0


def test_nimh_accept_charge_overcharge_becomes_heat():
    cell = NiMHCell()
    cell.discharge(1.0)
    stored = cell.accept_charge(3.0)
    assert stored == pytest.approx(1.0)
    assert cell.overcharge_heat_joules > 0.0
    assert cell.soc == pytest.approx(1.0)


def test_nimh_trickle_limit_is_c_over_10():
    cell = NiMHCell(capacity_mah=15.0)
    # 15 mAh / 10 hours = 1.5 mA
    assert cell.trickle_current_limit == pytest.approx(1.5e-3)


def test_nimh_self_discharge_month():
    cell = NiMHCell(self_discharge_per_month=0.25)
    cell.apply_self_discharge(30.0 * DAY)
    assert cell.soc == pytest.approx(0.75)


def test_nimh_self_discharge_compounds():
    cell = NiMHCell(self_discharge_per_month=0.25)
    for _ in range(30):
        cell.apply_self_discharge(DAY)
    assert cell.soc == pytest.approx(0.75, rel=1e-6)


def test_nimh_bad_curve_rejected():
    with pytest.raises(StorageError):
        NiMHCell(ocv_curve=((0.0, 1.0), (0.5, 1.2)))  # does not reach soc=1
    with pytest.raises(StorageError):
        NiMHCell(ocv_curve=((0.0, 1.0), (0.5, 1.2), (0.4, 1.3), (1.0, 1.4)))


def _walk_ocv(curve, soc):
    """The segment walk ``open_circuit_voltage`` ran before its table:
    the bitwise reference the table must reproduce."""
    for (s0, v0), (s1, v1) in zip(curve, curve[1:]):
        if soc <= s1:
            frac = (soc - s0) / (s1 - s0)
            return v0 + frac * (v1 - v0)
    return curve[-1][1]


class _PinnedSocCell(NiMHCell):
    """A cell read at an exact state of charge (no charge round trip)."""

    pinned = 0.0

    @property
    def soc(self):
        return self.pinned


@pytest.mark.parametrize("curve", [
    DEFAULT_OCV_CURVE,
    ((0.0, 1.0), (0.3, 1.2), (1.0, 1.45)),
])
def test_nimh_ocv_table_matches_the_curve_walk_bitwise(curve):
    cell = _PinnedSocCell(ocv_curve=curve)
    socs = set()
    for s, _ in curve:  # soc 0 and 1 are the end breakpoints
        socs.update((s, math.nextafter(s, -math.inf),
                     math.nextafter(s, math.inf)))
    rng = random.Random(2008)
    socs.update(rng.random() for _ in range(2000))
    for soc in sorted(socs):
        cell.pinned = soc
        assert cell.open_circuit_voltage().hex() == _walk_ocv(curve, soc).hex()


def test_nimh_set_soc_validation():
    cell = NiMHCell()
    with pytest.raises(StorageError):
        cell.set_soc(1.5)


# -- capacitors --------------------------------------------------------------


def test_supercap_energy_density_matches_paper():
    """Paper: ~10 J/g for a supercap."""
    cap = supercapacitor()
    assert cap.energy_density() == pytest.approx(10.0, rel=0.05)


def test_ceramic_energy_density_matches_paper():
    """Paper: ~2 J/g for a typical capacitor."""
    cap = ceramic_capacitor()
    assert cap.energy_density() == pytest.approx(2.0, rel=0.05)


def test_capacitor_voltage_tracks_charge_linearly():
    cap = supercapacitor(capacitance=1.0, v_rated=2.0, mass_grams=1.0)
    cap.set_soc(0.5)
    assert cap.open_circuit_voltage() == pytest.approx(1.0)
    cap.set_soc(1.0)
    assert cap.open_circuit_voltage() == pytest.approx(2.0)


def test_capacitor_burst_current_beats_nimh():
    """Low ESR: the ceramic cap delivers far larger bursts than the cell."""
    cell = NiMHCell()
    cap = ceramic_capacitor()
    cap.set_soc(0.9)
    cell.set_soc(0.9)
    # burst above 0.2 V floor
    assert cap.max_burst_current(0.2) > 50.0 * cell.max_burst_current(0.2)


def test_capacitor_usable_energy_above_floor():
    cap = supercapacitor(capacitance=1.0, v_rated=2.0, mass_grams=1.0, v_min_usable=1.0)
    cap.set_soc(1.0)
    assert cap.usable_energy() == pytest.approx(0.5 * (4.0 - 1.0))
    cap.set_soc(0.4)  # 0.8 V < floor
    assert cap.usable_energy() == 0.0


def test_capacitor_voltage_swing_ratio():
    cap = supercapacitor(capacitance=1.0, v_rated=2.5, mass_grams=1.0, v_min_usable=0.5)
    assert cap.voltage_swing_ratio() == pytest.approx(5.0)


def test_capacitor_invalid_params_rejected():
    with pytest.raises(StorageError):
        supercapacitor(capacitance=0.0)
    with pytest.raises(StorageError):
        supercapacitor(esr=0.0)


# -- thin film ------------------------------------------------------------------


def test_thin_film_thickness_window_enforced():
    with pytest.raises(StorageError):
        ThinFilmCell("tf", area_m2=1e-4, thickness_m=10e-6)
    with pytest.raises(StorageError):
        ThinFilmCell("tf", area_m2=1e-4, thickness_m=200e-6)


def test_thin_film_capacity_scales_with_volume():
    thin = ThinFilmCell("thin", area_m2=1e-4, thickness_m=30e-6)
    thick = ThinFilmCell("thick", area_m2=1e-4, thickness_m=90e-6)
    assert thick.capacity_coulombs == pytest.approx(3.0 * thin.capacity_coulombs)


def test_thin_film_stack_hits_target_voltage():
    stack = ThinFilmStack("stack", target_voltage=3.0, footprint_m2=1e-4)
    assert stack.series_count == 2
    assert stack.open_circuit_voltage() >= 2.7  # 2 cells near full


def test_thin_film_stack_capacity_is_single_cell():
    stack = ThinFilmStack("stack", target_voltage=3.0, footprint_m2=1e-4)
    assert stack.capacity_coulombs == pytest.approx(
        stack.cells[0].capacity_coulombs
    )


def test_thin_film_stack_series_discharge():
    stack = ThinFilmStack("stack", target_voltage=3.0, footprint_m2=1e-4)
    q = stack.capacity_coulombs * 0.1
    stack.discharge(q)
    for cell in stack.cells:
        assert cell.soc == pytest.approx(0.9)


def test_thin_film_stack_more_cells_less_area_each():
    low = ThinFilmStack("lo", target_voltage=1.5, footprint_m2=1e-4)
    high = ThinFilmStack("hi", target_voltage=6.0, footprint_m2=1e-4)
    assert high.series_count > low.series_count
    assert high.capacity_coulombs < low.capacity_coulombs


# -- property tests ------------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1.0))
def test_property_nimh_ocv_monotone_in_soc(soc):
    cell = NiMHCell()
    cell.set_soc(soc)
    v_low = cell.open_circuit_voltage()
    higher = min(soc + 0.05, 1.0)
    cell.set_soc(higher)
    assert cell.open_circuit_voltage() >= v_low - 1e-12


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_property_discharge_then_charge_round_trip(q_out, q_in):
    cell = NiMHCell()
    cell.set_soc(0.5)
    start = cell.charge
    q_out = min(q_out, start)
    cell.discharge(q_out)
    accepted = cell.charge_by(q_in)
    assert cell.charge == pytest.approx(start - q_out + accepted)
    assert 0.0 <= cell.soc <= 1.0


@given(st.floats(min_value=0.01, max_value=1.0))
def test_property_stored_energy_monotone_in_soc(soc):
    cell = NiMHCell()
    cell.set_soc(soc)
    energy = cell.stored_energy()
    cell.set_soc(soc * 0.5)
    assert cell.stored_energy() < energy
