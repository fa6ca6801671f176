"""Tests for the radio substrate: FBAR, transmitter, OOK, link, receivers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio.antenna import DielectricMaterial, PatchAntenna
from repro.radio.fbar import FbarResonator
from repro.radio.link import RadioLink, free_space_path_loss_db
from repro.radio.ook import OokModulator
from repro.radio.receiver import SuperregenerativeReceiver
from repro.radio.transmitter import FbarTransmitter
from repro.radio.wakeup import WakeupRadio, compare_reachability
from repro.units import dbm_to_watts, mils_to_metres


# -- FBAR ---------------------------------------------------------------------


def test_fbar_series_resonance_is_carrier():
    assert FbarResonator().f_series == pytest.approx(1.863e9)


def test_fbar_parallel_above_series():
    fbar = FbarResonator()
    assert fbar.f_parallel > fbar.f_series


def test_fbar_capacitive_off_resonance():
    """Paper: behaves like a capacitor except at resonance."""
    fbar = FbarResonator()
    assert fbar.is_capacitive(1.0e9)
    assert fbar.is_capacitive(3.0e9)


def test_fbar_impedance_minimum_at_series_resonance():
    fbar = FbarResonator()
    z_res = abs(fbar.impedance(fbar.f_series))
    z_off = abs(fbar.impedance(fbar.f_series * 0.98))
    assert z_res < 0.05 * z_off


def test_fbar_impedance_at_resonance_is_motional_r():
    fbar = FbarResonator()
    assert abs(fbar.impedance(fbar.f_series)) <= fbar.r_motional * 1.05


def test_fbar_bandwidth_from_q():
    fbar = FbarResonator(q_factor=1200.0)
    assert fbar.bandwidth() == pytest.approx(1.863e9 / 1200.0)


def test_fbar_startup_time_microseconds():
    """Start-up must be well under a 3 us bit for power-cycled OOK."""
    startup = FbarResonator().startup_time()
    assert startup < 5e-6


def test_fbar_startup_requires_gain():
    with pytest.raises(ConfigurationError):
        FbarResonator().startup_time(small_signal_loop_gain=0.9)


# -- Transmitter ------------------------------------------------------------------


def test_tx_output_power_is_0p8_dbm():
    assert FbarTransmitter().output_power_dbm == pytest.approx(0.8)


def test_tx_dc_power_from_46_percent_efficiency():
    tx = FbarTransmitter()
    assert tx.p_dc_on == pytest.approx(dbm_to_watts(0.8) / 0.46)


def test_tx_average_ook_power_matches_paper():
    """Paper: 1.35 mW at 50 % OOK."""
    assert FbarTransmitter().average_power_ook(0.5) == pytest.approx(
        1.35e-3, rel=0.02
    )


def test_tx_ook_power_scales_with_mark_density():
    tx = FbarTransmitter()
    assert tx.average_power_ook(1.0) > tx.average_power_ook(0.25)


def test_tx_budget_counts_ones():
    tx = FbarTransmitter()
    budget = tx.transmit_budget([1, 0, 1, 1], 330e3)
    assert budget.n_bits == 4
    assert budget.ones == 3
    assert budget.rf_on_time == pytest.approx(tx.startup_time() + 3 / 330e3)


def test_tx_budget_energy_split():
    tx = FbarTransmitter()
    budget = tx.transmit_budget([1] * 10, 100e3)
    assert budget.energy_rf_rail == pytest.approx(tx.p_dc_on * budget.rf_on_time)
    assert budget.energy_total > budget.energy_rf_rail
    assert budget.energy_per_bit > 0.0


def test_tx_rejects_overspeed():
    tx = FbarTransmitter()
    with pytest.raises(ConfigurationError):
        tx.transmit_budget([1, 0], 400e3)


def test_tx_rejects_bad_bits():
    with pytest.raises(ConfigurationError):
        FbarTransmitter().transmit_budget([1, 2], 100e3)


# -- OOK ----------------------------------------------------------------------------


def test_ook_segments_merge_runs():
    mod = OokModulator(bit_rate=100e3)
    segments = mod.power_segments([1, 1, 0, 0, 0, 1], p_on=2e-3)
    assert segments == [
        (pytest.approx(2e-5), 2e-3),
        (pytest.approx(3e-5), 0.0),
        (pytest.approx(1e-5), 2e-3),
    ]


def test_ook_round_trip():
    mod = OokModulator(bit_rate=330e3)
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
    t, env = mod.envelope(bits, samples_per_bit=8)
    assert mod.demodulate(t, env, len(bits)) == bits


def test_ook_round_trip_with_noise():
    rng = np.random.default_rng(42)
    mod = OokModulator(bit_rate=330e3)
    bits = list(rng.integers(0, 2, size=64))
    t, env = mod.envelope(bits, samples_per_bit=16)
    noisy = env + rng.normal(0.0, 0.15, env.shape)
    assert mod.demodulate(t, noisy, len(bits)) == bits


def test_ook_duration():
    assert OokModulator(bit_rate=330e3).duration(33) == pytest.approx(1e-4)


def test_ook_validation():
    mod = OokModulator()
    with pytest.raises(ConfigurationError):
        mod.power_segments([2], 1.0)
    with pytest.raises(ConfigurationError):
        mod.envelope([])
    with pytest.raises(ConfigurationError):
        OokModulator(bit_rate=0.0)


# -- Antenna ------------------------------------------------------------------------


def test_antenna_required_permittivity_over_10():
    """Paper: 'needed a dielectric constant of over 10'."""
    antenna = PatchAntenna()
    assert antenna.required_permittivity() > 10.0


def test_antenna_thicker_substrate_more_efficient():
    """Paper: 70 mil wanted, 50 mil built — efficiency compromised."""
    thick_material = DielectricMaterial(
        "hypothetical-70mil", 10.2, 0.0023, mils_to_metres(70.0)
    )
    built = PatchAntenna(thickness_m=mils_to_metres(50.0))
    wanted = PatchAntenna(material=thick_material, thickness_m=mils_to_metres(70.0))
    assert wanted.radiation_efficiency() > built.radiation_efficiency()


def test_antenna_material_thickness_limit_enforced():
    """Rogers 3010 tops out at 50 mil — the paper's fabrication wall."""
    with pytest.raises(ConfigurationError):
        PatchAntenna(thickness_m=mils_to_metres(70.0))  # ROGERS_3010 limit


def test_antenna_higher_permittivity_raises_q_rad():
    low = PatchAntenna(material=DielectricMaterial("x", 4.0, 0.002, 2e-3))
    high = PatchAntenna(material=DielectricMaterial("y", 12.0, 0.002, 2e-3))
    assert high.q_radiation() > low.q_radiation()


def test_antenna_detuning_and_matching_loss():
    antenna = PatchAntenna()  # eps 10.2 < required ~15: detuned
    assert antenna.detuning_fraction() > 0.1
    assert antenna.matching_loss_factor() < 1.0


def test_antenna_perfectly_sized_patch_has_no_matching_loss():
    # Build a patch whose material permittivity matches the requirement.
    probe = PatchAntenna()
    eps = probe.required_permittivity()
    matched = PatchAntenna(
        material=DielectricMaterial("ideal", eps, 0.0023, mils_to_metres(50.0))
    )
    assert matched.detuning_fraction() == pytest.approx(0.0, abs=1e-9)
    assert matched.matching_loss_factor() == pytest.approx(1.0)


def test_antenna_efficiency_in_range():
    eff = PatchAntenna().radiation_efficiency()
    assert 0.0 < eff < 1.0


# -- Link -----------------------------------------------------------------------------


def test_fspl_one_metre():
    assert free_space_path_loss_db(1.0, 1.863e9) == pytest.approx(37.8, abs=0.2)


def test_fspl_inverse_square():
    f = 1.863e9
    assert free_space_path_loss_db(2.0, f) - free_space_path_loss_db(
        1.0, f
    ) == pytest.approx(6.02, abs=0.01)


def test_link_matches_paper_minus_60dbm_at_1m():
    """Paper: 'Transmitted signal strength is about -60 dBm at 1 meter'."""
    link = RadioLink(PatchAntenna())
    assert link.budget(1.0).received_dbm == pytest.approx(-60.0, abs=2.0)


def test_link_range_about_one_metre():
    """Paper: 'Range is about 1 meter depending on orientation'."""
    link = RadioLink(PatchAntenna())
    assert 0.7 < link.max_range_m() < 3.0


def test_link_margin_sign_matches_closure():
    link = RadioLink(PatchAntenna())
    near = link.budget(0.5)
    far = link.budget(10.0)
    assert near.closes
    assert not far.closes


def test_link_received_power_watts():
    link = RadioLink(PatchAntenna())
    result = link.budget(1.0)
    assert link.received_power_w(1.0) == pytest.approx(
        dbm_to_watts(result.received_dbm)
    )


# -- Receivers -----------------------------------------------------------------------


def test_rx_ber_improves_with_snr():
    rx = SuperregenerativeReceiver()
    assert rx.bit_error_rate(20.0) < rx.bit_error_rate(5.0)


def test_rx_packet_success():
    rx = SuperregenerativeReceiver()
    assert rx.packet_success_probability(20.0, 64) > 0.99
    assert rx.packet_success_probability(3.0, 64) < 0.5


def test_rx_can_hear_threshold():
    rx = SuperregenerativeReceiver(sensitivity_dbm=-65.0)
    assert rx.can_hear(-60.0)
    assert not rx.can_hear(-70.0)


def test_rx_listen_energy():
    rx = SuperregenerativeReceiver(power_active=400e-6)
    assert rx.listen_energy(2.0) == pytest.approx(800e-6)


def test_wakeup_radio_cheaper_than_always_on():
    rx = SuperregenerativeReceiver()
    options = {o.strategy: o for o in compare_reachability(rx, WakeupRadio())}
    assert (
        options["wakeup-radio"].average_power
        < 0.2 * options["always-on-rx"].average_power
    )


def test_wakeup_radio_latency_near_always_on():
    rx = SuperregenerativeReceiver()
    options = {o.strategy: o for o in compare_reachability(rx, WakeupRadio())}
    assert options["wakeup-radio"].worst_case_latency < 0.01
    assert options["duty-cycled-rx"].worst_case_latency >= 1.0


def test_wakeup_false_wakeups_cost_power():
    rx = SuperregenerativeReceiver()
    clean = WakeupRadio(false_wakeups_per_hour=0.0)
    noisy = WakeupRadio(false_wakeups_per_hour=100.0)
    assert noisy.average_power(rx, 4.0, 50e-3) > clean.average_power(rx, 4.0, 50e-3)


def test_compare_reachability_validation():
    rx = SuperregenerativeReceiver()
    with pytest.raises(ConfigurationError):
        compare_reachability(rx, WakeupRadio(), duty_cycle_period=1.0,
                             listen_window=2.0)
