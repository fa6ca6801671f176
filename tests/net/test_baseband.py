"""Tests for the noisy baseband channel — cross-validation of the BER model."""

import pytest

from repro.errors import ConfigurationError
from repro.net.baseband import NoisyOokChannel, q_function
from repro.radio.ook import OokModulator


def test_q_function_known_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.0) == pytest.approx(0.1587, abs=1e-3)
    assert q_function(3.0) == pytest.approx(1.35e-3, rel=0.01)


def test_noise_sigma_from_snr():
    channel = NoisyOokChannel(snr_db=20.0)
    assert channel.noise_sigma == pytest.approx(0.1)


def test_clean_channel_round_trips():
    channel = NoisyOokChannel(snr_db=40.0)
    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 8
    assert channel.round_trip(bits) == bits


def test_empirical_ber_matches_analytic():
    """The waveform-level measurement must agree with the formula.

    Pick an SNR giving a BER around a few percent so 20k bits produce a
    tight estimate.
    """
    # Target analytic BER ~2-5 %: Q(x) = 0.03 -> x ~ 1.88; with 4 samples
    # per bit, x = 0.5*2/sigma -> sigma ~ 0.53 -> snr ~ 5.5 dB.
    channel = NoisyOokChannel(snr_db=5.5, samples_per_bit=4)
    analytic = channel.analytic_ber()
    assert 0.005 < analytic < 0.10
    empirical = channel.measure_ber(n_bits=40000)
    assert empirical == pytest.approx(analytic, rel=0.15)


def test_oversampling_improves_ber():
    """Matched-window integration gains sqrt(n) in effective SNR."""
    coarse = NoisyOokChannel(snr_db=6.0, samples_per_bit=2)
    fine = NoisyOokChannel(snr_db=6.0, samples_per_bit=16)
    assert fine.analytic_ber() < 0.1 * coarse.analytic_ber()
    assert fine.measure_ber(20000) < coarse.measure_ber(20000)


def test_ber_improves_with_snr():
    low = NoisyOokChannel(snr_db=3.0, samples_per_bit=4)
    high = NoisyOokChannel(snr_db=12.0, samples_per_bit=4)
    assert high.analytic_ber() < low.analytic_ber()
    assert high.measure_ber(20000) < low.measure_ber(20000)


def test_packet_success_rate_consistent_with_ber():
    channel = NoisyOokChannel(snr_db=8.0, samples_per_bit=4)
    ber = channel.analytic_ber()
    packet_bits = 96
    predicted = (1.0 - ber) ** packet_bits
    measured = channel.packet_success_rate(packet_bits, trials=300)
    assert measured == pytest.approx(predicted, abs=0.1)


def test_channel_deterministic_with_seed():
    a = NoisyOokChannel(snr_db=6.0, rng_seed=5)
    b = NoisyOokChannel(snr_db=6.0, rng_seed=5)
    bits = [1, 0] * 32
    assert a.round_trip(bits) == b.round_trip(bits)


def test_custom_modulator_respected():
    channel = NoisyOokChannel(modulator=OokModulator(bit_rate=100e3), snr_db=30.0)
    t, noisy = channel.transmit([1, 0, 1])
    assert t[-1] == pytest.approx(
        3 / 100e3 - (1 / 100e3) / channel.samples_per_bit, rel=1e-6
    )


def test_validation():
    with pytest.raises(ConfigurationError):
        NoisyOokChannel(samples_per_bit=0)
    channel = NoisyOokChannel()
    with pytest.raises(ConfigurationError):
        channel.measure_ber(0)
    with pytest.raises(ConfigurationError):
        channel.packet_success_rate(0)
