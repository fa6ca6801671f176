"""Tests for the FBAR frequency-tolerance model."""

import pytest

from repro.errors import ConfigurationError
from repro.radio.tolerance import FrequencyToleranceModel


def test_sigma_hz_from_ppm():
    model = FrequencyToleranceModel(carrier_hz=1.863e9, fbar_sigma_ppm=1000.0)
    assert model.sigma_hz() == pytest.approx(1.863e6)


def test_sampled_carriers_spread_around_nominal():
    model = FrequencyToleranceModel(fbar_sigma_ppm=1000.0, seed=1)
    samples = [model.sample_carrier() for _ in range(2000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(1.863e9, rel=3e-4)
    spread = max(samples) - min(samples)
    assert spread > 2e6  # multi-MHz spread at 1000 ppm


def test_wide_receiver_accepts_nearly_all():
    model = FrequencyToleranceModel(fbar_sigma_ppm=1000.0)
    study = model.link_yield(30e6, trials=3000)
    assert study.link_yield > 0.99


def test_narrow_receiver_strands_links():
    model = FrequencyToleranceModel(fbar_sigma_ppm=1000.0)
    study = model.link_yield(100e3, trials=3000)
    assert study.link_yield < 0.05


def test_yield_monotone_in_bandwidth():
    model = FrequencyToleranceModel()
    yields = [
        model.link_yield(bw, trials=2000).link_yield
        for bw in (3e5, 1e6, 3e6, 1e7)
    ]
    assert yields == sorted(yields)


def test_zero_spread_always_works():
    model = FrequencyToleranceModel(fbar_sigma_ppm=0.0)
    assert model.link_yield(1e3, trials=200).link_yield == 1.0


def test_trimming_caps_the_spread():
    raw = FrequencyToleranceModel(fbar_sigma_ppm=1000.0)
    trimmed = FrequencyToleranceModel(
        fbar_sigma_ppm=1000.0, trim_residual_ppm=100.0
    )
    assert trimmed.effective_sigma_ppm == 100.0
    assert trimmed.sigma_hz() < 0.2 * raw.sigma_hz()


def test_bandwidth_for_yield_meets_target():
    model = FrequencyToleranceModel(fbar_sigma_ppm=500.0)
    bandwidth = model.bandwidth_for_yield(0.95, trials=1500)
    check = model.link_yield(bandwidth, trials=3000)
    assert check.link_yield >= 0.93  # statistical slack


def test_deterministic_with_seed():
    a = FrequencyToleranceModel(seed=7)
    b = FrequencyToleranceModel(seed=7)
    assert a.sample_carrier() == b.sample_carrier()
    assert a.link_yield(1e6, 500) == b.link_yield(1e6, 500)


def test_validation():
    with pytest.raises(ConfigurationError):
        FrequencyToleranceModel(carrier_hz=0.0)
    model = FrequencyToleranceModel()
    with pytest.raises(ConfigurationError):
        model.link_yield(0.0)
    with pytest.raises(ConfigurationError):
        model.link_yield(1e6, trials=0)
    with pytest.raises(ConfigurationError):
        model.bandwidth_for_yield(1.5)
