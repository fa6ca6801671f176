"""E12 — Energy neutrality on the tire (paper §1, §4.4, §6).

Claim (the project's premise): the node must live on harvested energy —
"changing batteries or refueling of this huge number of deployed nodes is
impractical" — and the tire application provides the "mechanical mass"
to do it.

Regenerates: a full commuter day with the rim harvester charging through
the synchronous rectifier and C/10 trickle limit, against the node's
measured ~6-7 uW draw plus NiMH self-discharge.  Shape checks: the
battery ends the day no lower than it started; driving segments harvest
orders of magnitude above demand; parked segments drain only microamps.
"""

from conftest import print_table

from repro.core.builder import build_tpms_deployment
from repro.units import DAY, HOUR


def run_day():
    deployment = build_tpms_deployment(harvest_update_s=300.0)
    node = deployment.node
    soc_log = [(0.0, node.battery.soc)]
    for hour in range(24):
        node.run(HOUR)
        soc_log.append((hour + 1.0, node.battery.soc))
    return deployment, soc_log


def test_e12_energy_neutral(benchmark):
    deployment, soc_log = benchmark.pedantic(run_day, rounds=1, iterations=1)
    node = deployment.node

    print_table(
        "E12: battery state over one commuter day",
        ["hour", "speed (km/h)", "state of charge"],
        [
            (f"{h:.0f}", f"{deployment.cycle.speed_at(h * HOUR):.0f}",
             f"{soc:.4f}")
            for h, soc in soc_log
        ],
    )
    demand = node.average_power()
    harvest_profile = deployment.cycle.harvest_profile(
        deployment.harvester, node.battery.open_circuit_voltage()
    )
    day_harvest = sum(d * p for d, p in harvest_profile) / deployment.cycle.duration
    print(f"\nnode demand: {demand * 1e6:.2f} uW; "
          f"day-average harvest (pre-clamp): {day_harvest * 1e6:.1f} uW")
    print(f"cycles completed: {node.cycles_completed} "
          f"({node.cycles_completed / (DAY / 6.0):.1%} of schedule)")

    # Shape: energy neutral — ends at or above the starting charge.
    assert soc_log[-1][1] >= soc_log[0][1]
    # Shape: harvest >> demand while driving.
    assert day_harvest > 5.0 * demand
    # Shape: no missed samples (the node never browned out).
    assert node.cycles_completed >= int(24 * HOUR / 6.0) - 1
    # Shape: parked (hours 10-21 of the 22 h cycle: both commutes done,
    # overnight lot) the battery only sags slightly — self-discharge plus
    # ~5.5 uA, under 2 % across 11 hours — and never charges.
    parked = soc_log[21][1] - soc_log[10][1]
    assert -0.02 < parked <= 1e-12
