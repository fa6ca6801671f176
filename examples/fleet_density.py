#!/usr/bin/env python3
"""Dense deployments: how many PicoCubes fit on one OOK channel?

The paper's opening vision (§1): sensors "embedded in everyday materials
and surfaces often in very dense collaborative networks."  PicoCubes are
transmit-only and uncoordinated, so a dense deployment is a pure-ALOHA
channel.  This study simulates whole fleets sharing the 1.863 GHz channel
and measures delivered beacons vs. density — and shows the one failure
mode to engineer away (synchronised wake-ups).
"""

import os

from repro.net.fleet import aloha_prediction
from repro.studies import fleet_density_campaign, fleet_task


def main() -> None:
    burst_s = 3.2e-4  # ~300 us beacon on the air

    print("=" * 72)
    print("Fleet density study: 6 s beacons, ~0.3 ms air time each")
    print("=" * 72)
    print(f"\n{'nodes':>6} {'phases':<12} {'delivered':>10} {'loss':>8} "
          f"{'ALOHA model':>12}")

    workers = min(4, os.cpu_count() or 1)
    rows, stats = fleet_density_campaign(
        (2, 5, 10, 20, 40), duration_s=300.0, burst_s=burst_s, workers=workers
    )
    for count, staggered, random_fleet, predicted in rows:
        print(f"{count:>6} {'staggered':<12} "
              f"{staggered.delivered:>6}/{staggered.transmitted:<4}"
              f"{staggered.collision_rate:>7.1%} {'-':>12}")
        print(f"{'':>6} {'random':<12} "
              f"{random_fleet.delivered:>6}/{random_fleet.transmitted:<4}"
              f"{random_fleet.collision_rate:>7.1%} {predicted:>11.2%}")
    print(f"\n[runner] {stats.summary()}")

    # The pathological case: everyone powered up in the same millisecond.
    clustered = fleet_task((10, None, 0.0001, 300.0))
    print(f"\npathological (10 nodes waking within 1 ms): "
          f"{clustered.collision_rate:.0%} loss — synchronised wake-ups "
          "are the one density killer")

    # Headroom estimate: how dense before random phases lose 10 %?
    count = 2
    while 1.0 - aloha_prediction(count, burst_s) < 0.10:
        count *= 2
    print(f"\nALOHA model: ~{count // 2}-{count} uncoordinated nodes per "
          "channel before 10% beacon loss —")
    print("the 6 s / 0.3 ms duty cycle leaves room for ~1000-node density, "
          "exactly the paper's 'dense collaborative networks'.")


if __name__ == "__main__":
    main()
