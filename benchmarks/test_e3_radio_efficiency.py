"""E3 — Transmitter efficiency and OOK power (paper §4.6).

Claims: "46 % efficiency @ 1.2 mW transmit power, 650 mV supply"; "With
50 % on-off keying (OOK), power consumption is 1.35 mW at data rates up
to 330 kbps."

Regenerates: DC power vs. OOK mark density, and per-packet energy vs. bit
rate.  Shape checks: 1.35 mW at 50 % marks; power scales linearly with
mark density; energy per packet falls with bit rate (fixed startup
amortised).
"""

import pytest
from conftest import print_table

from repro.net.packet import encode_tpms_reading
from repro.radio.transmitter import FbarTransmitter


def sweep():
    tx = FbarTransmitter()
    densities = [0.0, 0.25, 0.5, 0.75, 1.0]
    density_rows = [(d, tx.average_power_ook(d)) for d in densities]
    packet = encode_tpms_reading(1, 0, 32.0, 25.0, 50.0, 2.2)
    rates = [50e3, 100e3, 200e3, 330e3]
    rate_rows = [
        (rate, tx.transmit_budget(packet.to_bits(), rate)) for rate in rates
    ]
    return tx, density_rows, rate_rows


def test_e3_radio_efficiency(benchmark):
    tx, density_rows, rate_rows = benchmark(sweep)

    print_table(
        "E3a: OOK average burst power vs mark density (paper: 1.35 mW @ 50%)",
        ["mark density", "avg power"],
        [(f"{d:.2f}", f"{p * 1e3:.3f} mW") for d, p in density_rows],
    )
    print_table(
        "E3b: per-packet energy vs bit rate (96-bit TPMS frame)",
        ["bit rate", "on-air time", "energy", "energy/bit"],
        [
            (f"{rate / 1e3:.0f} kbps", f"{b.duration * 1e3:.3f} ms",
             f"{b.energy_total * 1e6:.3f} uJ",
             f"{b.energy_per_bit * 1e9:.1f} nJ")
            for rate, b in rate_rows
        ],
    )
    print(f"\nPA efficiency: {tx.efficiency:.0%} at "
          f"{tx.output_power_dbm:.1f} dBm "
          f"(DC draw while on: {tx.p_dc_on * 1e3:.2f} mW)")

    # Shape: the paper's 1.35 mW at 50 % OOK.
    at_half = dict(density_rows)[0.5]
    assert at_half == pytest.approx(1.35e-3, rel=0.03)
    # Shape: linear in mark density above the digital floor.
    floor = dict(density_rows)[0.0]
    full = dict(density_rows)[1.0]
    assert full - floor == pytest.approx(2.0 * (at_half - floor), rel=1e-6)
    # Shape: faster bits cost less total energy per packet.
    energies = [b.energy_total for _, b in rate_rows]
    assert energies == sorted(energies, reverse=True)
    # Shape: 46 % of the DC power leaves the antenna port.
    assert tx.p_rf / tx.p_dc_on == pytest.approx(0.46, rel=1e-6)
