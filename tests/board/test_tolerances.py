"""Tests for the packaging alignment-tolerance analysis."""

import pytest

from repro.board.tolerances import PadAlignmentModel, monte_carlo_yield
from repro.errors import ConfigurationError
from repro.studies import (
    alignment_model,
    alignment_yield_campaign,
    parallel_tolerance_for_yield,
)


def test_zero_misalignment_is_ok():
    model = PadAlignmentModel()
    assert model.classify(0.0).status == "ok"


def test_large_misalignment_shorts_first():
    """With a 0.6 mm inter-pad gap, shorts trip before opens."""
    model = PadAlignmentModel(pad_gap_m=0.6e-3)
    assert model.classify(0.55e-3).status == "short"


def test_extreme_misalignment_opens():
    model = PadAlignmentModel(pad_gap_m=5e-3)  # huge gap: opens dominate
    assert model.classify(1.15e-3).status == "open"


def test_classification_symmetric_in_sign():
    model = PadAlignmentModel()
    assert model.classify(0.55e-3).status == model.classify(-0.55e-3).status


def test_max_safe_misalignment_consistent():
    model = PadAlignmentModel()
    safe = model.max_safe_misalignment()
    assert model.classify(safe * 0.99).status == "ok"
    assert model.classify(safe * 1.05).status != "ok"


def test_monte_carlo_tight_fit_high_yield():
    model = PadAlignmentModel()
    report = monte_carlo_yield(model, fit_tolerance_m=0.1e-3, samples=500)
    assert report.yield_fraction > 0.99


def test_monte_carlo_loose_fit_low_yield():
    model = PadAlignmentModel()
    report = monte_carlo_yield(model, fit_tolerance_m=1.2e-3, samples=500)
    assert report.yield_fraction < 0.5
    assert report.shorts > 0


def test_monte_carlo_yield_monotone_in_tolerance():
    model = PadAlignmentModel()
    yields = [
        monte_carlo_yield(model, tol, samples=400).yield_fraction
        for tol in (0.1e-3, 0.4e-3, 0.7e-3, 1.0e-3)
    ]
    assert all(a >= b for a, b in zip(yields, yields[1:]))


def test_monte_carlo_deterministic_with_seed():
    model = PadAlignmentModel()
    a = monte_carlo_yield(model, 0.6e-3, samples=300, seed=7)
    b = monte_carlo_yield(model, 0.6e-3, samples=300, seed=7)
    assert a == b


def test_yield_report_counts_consistent():
    model = PadAlignmentModel()
    report = monte_carlo_yield(model, 0.8e-3, samples=400)
    assert report.ok + report.opens + report.shorts == report.samples


def test_tolerance_for_yield_meets_target():
    tolerance = parallel_tolerance_for_yield(
        "18-pad", target_yield=0.95, samples=300, workers=1
    )
    # The campaign seeds each chunk from the tolerance, so this replays
    # the draws the bisection accepted.
    report, _ = alignment_yield_campaign(
        "18-pad", tolerance, samples=300, chunks=4, workers=1
    )
    assert report.yield_fraction >= 0.95


def test_smaller_pads_need_tighter_fit():
    """The §5 warning: 'smaller pads with tighter tolerances'."""
    current, shrunk = alignment_model("18-pad"), alignment_model("30-pad")
    assert shrunk.max_safe_misalignment() < current.max_safe_misalignment()
    tol_now = parallel_tolerance_for_yield(
        "18-pad", target_yield=0.95, samples=300, workers=1
    )
    tol_next = parallel_tolerance_for_yield(
        "30-pad", target_yield=0.95, samples=300, workers=1
    )
    assert tol_next < tol_now


def test_validation():
    with pytest.raises(ConfigurationError):
        PadAlignmentModel(pad_gap_m=0.0)
    model = PadAlignmentModel()
    with pytest.raises(ConfigurationError):
        monte_carlo_yield(model, 0.0)
    with pytest.raises(ConfigurationError):
        monte_carlo_yield(model, 1e-3, samples=0)
    with pytest.raises(ConfigurationError):
        parallel_tolerance_for_yield("18-pad", target_yield=1.5)
