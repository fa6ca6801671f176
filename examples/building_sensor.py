#!/usr/bin/env python3
"""A building sensor living on room light (the paper's decades vision).

Paper §1: sensors "must live at least as long as the application is in
service, which can be decades (for example, in a building). ...  under
well-lit conditions cladding the outside of the node with solar cells
would provide sufficient energy."

The operative phrase is *well-lit*.  This study prices the node's real
weekly energy bill — the 6.9 uW electronics PLUS the NiMH cell's own
self-discharge, which indoors is the same order! — against a lights-on
schedule at three light levels, then simulates a full week at each to
see which ones ride through the nights and the weekend.
"""

from repro.core.builder import build_tpms_node
from repro.harvest.lighting import BuildingDeployment, LightingSchedule
from repro.units import DAY

LIGHT_LEVELS = [
    ("dim office (1 W/m2)", 1.0),
    ("bright office (3.5 W/m2)", 3.5),
    ("daylit atrium (10 W/m2)", 10.0),
]


def main() -> None:
    schedule_template = LightingSchedule()
    print("=" * 72)
    print("Office deployment study: lights 08:00-18:00 weekdays")
    print("=" * 72)

    # --- the energy bill ------------------------------------------------------
    probe = build_tpms_node()
    probe.run(3600.0)
    node_demand = probe.average_power()
    # NiMH self-discharge expressed as an equivalent power drain.
    cell = probe.battery
    self_discharge_w = (
        cell.charge * 0.25 / (30 * DAY) * cell.open_circuit_voltage()
    )
    total_demand = node_demand + self_discharge_w
    print(f"\nweekly energy bill:")
    print(f"  node electronics        {node_demand * 1e6:6.2f} uW")
    print(f"  NiMH self-discharge     {self_discharge_w * 1e6:6.2f} uW "
          "(the hidden tax of battery buffering)")
    print(f"  total                   {total_demand * 1e6:6.2f} uW")
    print(f"  longest dark stretch    "
          f"{schedule_template.longest_dark_stretch_s() / 3600.0:.0f} h "
          "(the weekend)")

    # --- income vs light level, then a simulated week at each -------------------
    print(f"\n{'light level':<28} {'income':>9} {'bill':>8} "
          f"{'soc after 1 week':>17} {'verdict':>10}")
    print("-" * 78)
    for label, irradiance in LIGHT_LEVELS:
        schedule = LightingSchedule(irradiance_on=irradiance)
        deployment = BuildingDeployment(schedule=schedule)
        income = deployment.average_income_w()
        node = build_tpms_node()
        node.attach_charger(
            deployment.charging_current_at, update_period_s=600.0
        )
        node.run(7 * DAY)
        sustained = node.battery.soc >= 0.598
        print(f"{label:<28} {income * 1e6:6.2f} uW "
              f"{total_demand * 1e6:5.2f} uW "
              f"{node.battery.soc:>17.3f} "
              f"{'SUSTAINS' if sustained else 'drains':>10}")

    # --- the break-even light level --------------------------------------------
    reference = BuildingDeployment(schedule=LightingSchedule(irradiance_on=1.0))
    income_per_wm2 = reference.average_income_w()  # income scales linearly
    breakeven = total_demand / income_per_wm2
    print(f"\nbreak-even lights-on irradiance: ~{breakeven:.1f} W/m^2 —")
    print("a dim office starves the node (mostly because of the battery's "
          "own self-discharge);")
    print("a genuinely well-lit space sustains it indefinitely, exactly the "
          "paper's claim.")


if __name__ == "__main__":
    main()
