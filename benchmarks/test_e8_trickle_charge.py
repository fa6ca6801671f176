"""E8 — Trickle charging at C/10 (paper §4.4).

Claim: "NiMH can be trickle charged for an indefinite period at one-tenth
the capacity (C/10) without damage.  This eliminates the need for complex
charge control circuitry."

Regenerates: a charge-from-empty run at C/10 and a long overcharge soak.
Shape checks: the cell fills in ~10-12 hours; continued C/10 after full
recombines as bounded heat (no error, no overfill); faster charging is
clamped, not applied.
"""

from conftest import print_table

from repro.storage.charging import TrickleCharger
from repro.storage.nimh import NiMHCell
from repro.units import HOUR


def run_charge():
    cell = NiMHCell()
    cell.set_soc(0.0)
    charger = TrickleCharger(cell)
    limit = charger.current_limit
    trajectory = []
    # Charge from empty at exactly C/10 for 14 hours, logging hourly.
    for hour in range(14):
        charger.charge(limit, HOUR)
        trajectory.append((hour + 1, cell.soc, cell.overcharge_heat_joules))
    # Then a 48-hour overcharge soak — the "indefinite period" claim.
    heat_before_soak = cell.overcharge_heat_joules
    charger.charge(limit, 48 * HOUR)
    # And an over-current attempt that must be clamped.
    report = charger.charge(5.0 * limit, HOUR)
    return cell, charger, trajectory, heat_before_soak, report


def test_e8_trickle_charge(benchmark):
    cell, charger, trajectory, heat_before_soak, report = benchmark(run_charge)

    print_table(
        "E8: C/10 trickle charge from empty (15 mAh cell, 1.5 mA)",
        ["hour", "state of charge", "recombination heat"],
        [
            (h, f"{soc:.3f}", f"{heat:.3f} J")
            for h, soc, heat in trajectory
        ],
    )
    print(f"\nafter a further 48 h soak at C/10: soc={cell.soc:.3f}, "
          f"heat={cell.overcharge_heat_joules:.2f} J (no damage, no overfill)")
    print(f"5x over-current attempt: offered "
          f"{report.coulombs_offered:.2f} C, stored "
          f"{report.coulombs_stored:.2f} C, clamped "
          f"{report.coulombs_clamped:.2f} C")

    # Shape: full in 10-12 hours at C/10 (plus nothing before hour 9).
    socs = {h: soc for h, soc, _ in trajectory}
    assert socs[9] < 1.0
    assert socs[11] == 1.0
    # Shape: the soak does not overfill and converts exactly the soaked
    # charge to heat at the cell voltage.
    assert cell.soc == 1.0
    assert cell.overcharge_heat_joules > heat_before_soak
    # Shape: the clamp sheds excess current instead of stressing the cell.
    assert report.coulombs_clamped > 0.0
    assert charger.is_safe_indefinitely(charger.current_limit)
    assert not charger.is_safe_indefinitely(2.0 * charger.current_limit)
