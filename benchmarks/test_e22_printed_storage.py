"""E22 (extension) — Dispenser-printed thin-film storage (paper §7.2).

Claims: "Films of 30 to 100 µm of these various materials have been
printed with little surface roughness.  A great benefit of this approach
is the ability to design storage to fit the consumer, for example, a
specific voltage range" — against the known obstacles, "low capacity per
area and high processing temperatures."

Regenerates: the design study the section implies — print a battery into
the storage board's footprint, sweep film thickness and target voltage,
and compare against the 15 mAh NiMH cell it would replace.  Shape
checks: capacity scales linearly with printable thickness; higher target
voltages trade capacity for series count automatically; even the thickest
printable stack stores an order of magnitude less than the NiMH cell —
the "low capacity per area" obstacle, quantified.
"""

import pytest
from conftest import print_table

from repro.storage.nimh import NiMHCell
from repro.storage.thin_film import ThinFilmStack

FOOTPRINT_M2 = 7.2e-3 * 7.2e-3  # the storage board's placement square


def sweep():
    thickness_rows = []
    for microns in (30.0, 50.0, 75.0, 100.0):
        stack = ThinFilmStack(
            f"print-{microns:.0f}um",
            target_voltage=1.5,
            footprint_m2=FOOTPRINT_M2,
            thickness_m=microns * 1e-6,
        )
        thickness_rows.append((microns, stack))
    voltage_rows = []
    for target in (1.5, 3.0, 4.5, 6.0):
        stack = ThinFilmStack(
            f"print-{target:.1f}V",
            target_voltage=target,
            footprint_m2=FOOTPRINT_M2,
            thickness_m=100e-6,
        )
        voltage_rows.append((target, stack))
    nimh = NiMHCell()
    return thickness_rows, voltage_rows, nimh


def test_e22_printed_storage(benchmark):
    thickness_rows, voltage_rows, nimh = benchmark(sweep)

    print_table(
        "E22a: printed capacity vs film thickness (7.2 mm square, 1.5 V)",
        ["thickness", "capacity", "energy", "internal R"],
        [
            (f"{um:.0f} um",
             f"{stack.capacity_coulombs:.3f} C",
             f"{stack.stored_energy():.3f} J",
             f"{stack.internal_resistance():.1f} ohm")
            for um, stack in thickness_rows
        ],
    )
    print_table(
        "E22b: 'design storage to fit the consumer' — target voltage sweep "
        "(100 um films)",
        ["target", "series cells", "stack OCV", "capacity", "energy"],
        [
            (f"{v:.1f} V", stack.series_count,
             f"{stack.open_circuit_voltage():.2f} V",
             f"{stack.capacity_coulombs:.3f} C",
             f"{stack.stored_energy():.3f} J")
            for v, stack in voltage_rows
        ],
    )
    print(f"\nthe NiMH cell it would replace: "
          f"{nimh.capacity_coulombs:.1f} C, {nimh.stored_energy():.1f} J")

    # Shape: capacity linear in thickness across the printable window.
    by_um = {um: stack for um, stack in thickness_rows}
    assert by_um[100.0].capacity_coulombs == pytest.approx(
        (100.0 / 30.0) * by_um[30.0].capacity_coulombs, rel=1e-6
    )
    # Shape: series stacking hits any voltage target, paying in capacity.
    by_v = {v: stack for v, stack in voltage_rows}
    assert by_v[3.0].series_count == 2
    assert by_v[6.0].series_count == 4
    assert by_v[6.0].capacity_coulombs == pytest.approx(
        by_v[1.5].capacity_coulombs / 4.0, rel=1e-6
    )
    for v, stack in voltage_rows:
        assert stack.open_circuit_voltage() >= v * 0.95
    # Shape: "low capacity per area" — the best printable stack holds an
    # order of magnitude less than the coin cell.
    best = by_um[100.0]
    assert best.stored_energy() < 0.2 * nimh.stored_energy()
    # But: it *is* enough for the node. Days of 7 uW operation per print.
    days = best.stored_energy() / 7e-6 / 86400.0
    print(f"100 um print runs the 7 uW node for ~{days:.0f} days "
          "between light spells")
    assert days > 1.0