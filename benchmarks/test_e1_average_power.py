"""E1 — Average node power (paper §6).

Claim: "Average Cube power consumption using the TPMS sensor is 6 uW,
dominated by quiescent losses from the power management circuitry."

Regenerates: the average-power measurement and the channel breakdown.
Shape checks: average in the 5-8 uW band; power management is the largest
channel; sleep floor is the dominant contributor vs. active bursts.
"""

from conftest import print_table

from repro.core.builder import build_tpms_node
from repro.core.energy_audit import audit_node


def run_hour():
    node = build_tpms_node()
    node.environment.set_speed_kmh(60.0)
    node.run(3600.0)
    return node


def test_e1_average_power(benchmark):
    node = benchmark.pedantic(run_hour, rounds=3, iterations=1)
    audit = audit_node(node)

    rows = [
        (name, f"{energy * 1e3:.3f} mJ",
         f"{energy / sum(audit.energy_by_channel_j.values()):.1%}")
        for name, energy in audit.energy_by_channel_j.items()
    ]
    print_table(
        "E1: one hour of TPMS operation (paper: 6 uW average)",
        ["channel", "energy", "share"],
        rows,
    )
    print(f"\naverage power: {audit.average_power_w * 1e6:.2f} uW "
          f"(paper: 6 uW)")
    print(f"energy per cycle: {audit.energy_per_cycle_j * 1e6:.2f} uJ; "
          f"cycles: {audit.cycles}")

    # Shape: the measured average is in the paper's band.
    assert 5e-6 < audit.average_power_w < 8e-6
    # Shape: power management dominates, as the paper states.
    assert audit.dominant_channel() == "power-management"
    assert audit.management_fraction > 0.30
    # Shape: the radio is a tiny slice — transmission is cheap at this
    # duty cycle; it is being *ready* that costs.
    radio = (audit.energy_by_channel_j["radio-rf"]
             + audit.energy_by_channel_j["radio-digital"])
    assert radio < 0.05 * sum(audit.energy_by_channel_j.values())
