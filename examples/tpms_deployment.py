#!/usr/bin/env python3
"""Tire-pressure deployment: a week on a commuter's car.

The paper's flagship application (§1, §4.5): the node rides the rim, a
rotational harvester tops up the 15 mAh NiMH cell through the synchronous
rectifier and the C/10 trickle limit, and the node beacons pressure /
temperature / acceleration / supply voltage every six seconds.

The run answers the deployment questions: does the battery stay charged
through a week of commuting (including nights parked), what does the
harvester deliver segment by segment, and does a slow leak show up in the
telemetry?
"""

from repro.core.builder import build_tpms_deployment
from repro.net.packet import decode_tpms_reading
from repro.units import DAY, HOUR


def main() -> None:
    deployment = build_tpms_deployment(power_train="cots", harvest_update_s=300.0)
    node = deployment.node
    cycle = deployment.cycle

    print("=" * 72)
    print(f"Drive cycle: {cycle.name!r}, {cycle.duration / HOUR:.1f} h/day, "
          f"mean speed {cycle.mean_speed():.0f} km/h")
    print("=" * 72)

    # Per-segment harvest budget.
    print("\nharvest budget by segment:")
    current_fn = deployment.charging_current_fn()
    t = 0.0
    for segment in cycle.segments:
        current = current_fn(t + 1.0)
        print(
            f"  {segment.duration_s / 60.0:7.1f} min @ {segment.speed_kmh:5.0f} km/h"
            f"  ->  charging {current * 1e6:9.1f} uA"
            f"  ({'clamped to C/10' if current > 1.5e-3 else 'within trickle limit'})"
        )
        t += segment.duration_s

    # Simulate a week, day by day, with a slow leak starting on day 3.
    print("\nweek-long simulation:")
    print(f"  {'day':>4} {'soc':>7} {'avg power':>11} {'packets':>8} "
          f"{'pressure':>9}")
    for day in range(7):
        if day == 3:
            node.environment.leak(4.0)  # 4 psi leak event
        node.run(DAY)
        last = decode_tpms_reading(node.packets_sent[-1])
        print(
            f"  {day + 1:>4} {node.battery.soc:7.3f} "
            f"{node.average_power() * 1e6:9.2f} uW "
            f"{len(node.packets_sent):>8} {last['pressure_psi']:8.1f} psi"
        )

    print("\nverdict:")
    neutral = node.battery.soc >= 0.6
    print(f"  energy neutral over the week: {'YES' if neutral else 'NO'} "
          f"(soc {node.battery.soc:.3f} vs start 0.600)")
    print(f"  leak visible in telemetry: "
          f"{'YES' if last['pressure_psi'] < 30.0 else 'NO'}")
    print(f"  total cycles: {node.cycles_completed} "
          f"({node.cycles_completed / 7 / (DAY / 6):.0%} of scheduled)")


if __name__ == "__main__":
    main()
