"""Tests for the battery + bypass-capacitor hybrid buffer."""

import pytest

from repro.errors import StorageError
from repro.storage.hybrid import HybridBuffer
from repro.storage.nimh import NiMHCell


def make_buffer(soc=0.6, **kwargs):
    cell = NiMHCell()
    cell.set_soc(soc)
    return HybridBuffer(cell, **kwargs)


def test_buffered_sag_below_unbuffered():
    buffer = make_buffer()
    analysis = buffer.analyze_burst(4e-3, 0.3e-3)
    assert analysis.sag_buffered < analysis.sag_unbuffered
    assert analysis.improvement > 1.0


def test_unbuffered_sag_is_ohmic():
    buffer = make_buffer()
    analysis = buffer.analyze_burst(4e-3, 0.3e-3)
    assert analysis.sag_unbuffered == pytest.approx(
        4e-3 * buffer.cell.internal_resistance()
    )


def test_bigger_cap_buffers_better():
    small = make_buffer(bypass_capacitance=10e-6)
    large = make_buffer(bypass_capacitance=470e-6)
    burst = (4e-3, 0.3e-3)
    assert (
        large.analyze_burst(*burst).sag_buffered
        < small.analyze_burst(*burst).sag_buffered
    )


def test_long_burst_hands_off_to_cell():
    """For bursts much longer than tau, the cap stops helping."""
    buffer = make_buffer(bypass_capacitance=10e-6)
    short = buffer.analyze_burst(4e-3, 10e-6)
    long = buffer.analyze_burst(4e-3, 100e-3)
    assert long.sag_buffered > short.sag_buffered
    assert long.sag_buffered == pytest.approx(long.sag_unbuffered, rel=0.01)


def test_cap_takes_most_of_burst_onset():
    """Low ESR vs the cell's ohms: the cap carries the initial edge."""
    buffer = make_buffer()
    analysis = buffer.analyze_burst(4e-3, 0.3e-3)
    assert analysis.cap_share_initial > 0.9


def test_depleted_cell_needs_the_cap_more():
    fresh = make_buffer(soc=0.6)
    depleted = make_buffer(soc=0.05)
    burst = (4e-3, 0.3e-3)
    assert (
        depleted.analyze_burst(*burst).sag_unbuffered
        > 3.0 * fresh.analyze_burst(*burst).sag_unbuffered
    )


def test_required_capacitance_meets_budget():
    buffer = make_buffer(soc=0.05)
    needed = buffer.required_capacitance(4e-3, 0.3e-3, sag_budget=5e-3)
    buffer.bypass_capacitance = needed
    assert buffer.analyze_burst(4e-3, 0.3e-3).sag_buffered <= 5e-3 * 1.01


def test_required_capacitance_monotone_in_budget():
    buffer = make_buffer(soc=0.05)
    tight = buffer.required_capacitance(4e-3, 0.3e-3, sag_budget=3e-3)
    loose = buffer.required_capacitance(4e-3, 0.3e-3, sag_budget=10e-3)
    assert tight > loose


def test_impossible_budget_rejected():
    buffer = make_buffer(bypass_esr=5.0)  # terrible ESR
    with pytest.raises(StorageError):
        buffer.required_capacitance(4e-3, 0.3e-3, sag_budget=1e-4)


def test_leakage_power_microwatt_scale():
    buffer = make_buffer(bypass_leakage=50e-9)
    assert 0.0 < buffer.leakage_power() < 1e-6


def test_recharge_time_scales_with_cap():
    small = make_buffer(bypass_capacitance=10e-6)
    large = make_buffer(bypass_capacitance=100e-6)
    assert large.recharge_time() == pytest.approx(10.0 * small.recharge_time())


def test_recharge_well_before_next_cycle():
    """The cap must be ready again within the 6 s wake period."""
    buffer = make_buffer(bypass_capacitance=220e-6)
    assert buffer.recharge_time() < 1.0


def test_validation():
    with pytest.raises(StorageError):
        make_buffer(bypass_capacitance=0.0)
    with pytest.raises(StorageError):
        make_buffer(bypass_esr=-1.0)
    buffer = make_buffer()
    with pytest.raises(StorageError):
        buffer.analyze_burst(-1e-3, 1e-3)
    with pytest.raises(StorageError):
        buffer.recharge_time(fraction=1.5)
