#!/usr/bin/env python3
"""The BWRC retreat demo (paper §6, Figs 7-8), end to end.

A cube with the SCA3000 accelerometer in motion-threshold mode sits on a
table.  Visitors pick it up; the threshold interrupt wakes the node, which
streams X/Y/Z samples over the 1.863 GHz OOK link to the superregenerative
receiver bench, where a 'laptop' decodes and plots them.  Put it down and
the plotting stops.
"""

from repro.core.builder import build_demo_bench, build_motion_node
from repro.sensors.environment import MotionInterval


def main() -> None:
    # The demo script: two visitors handle the cube.
    intervals = [
        MotionInterval(8.0, 14.0, peak_g=1.2),   # visitor one, gentle
        MotionInterval(25.0, 29.0, peak_g=2.5),  # visitor two, enthusiastic
    ]
    node = build_motion_node(intervals=intervals)
    bench = build_demo_bench()

    print("=" * 72)
    print("BWRC retreat demo: cube on the table, receiver bench at 1 m")
    print("=" * 72)

    node.run(35.0)

    # Push every transmitted packet through the channel at demo distance.
    stats = bench.session(node.packets_sent, distance_m=1.0)

    print(f"\ncube transmitted {stats.transmitted} sample packets")
    print(f"bench heard {stats.heard}, decoded {stats.decoded}, "
          f"CRC-failed {stats.crc_failed} "
          f"(loss {stats.packet_loss:.1%})")

    print("\nlaptop display (X, Y, Z in g):")
    print(f"  {'seq':>4} {'X':>7} {'Y':>7} {'Z':>7}")
    for point in bench.display:
        print(
            f"  {point['seq']:>4} {point['accel_x_g']:7.2f} "
            f"{point['accel_y_g']:7.2f} {point['accel_z_g']:7.2f}"
        )

    # The power story: deep sleep except while handled.
    print(f"\naverage node power over the session: "
          f"{node.average_power() * 1e6:.1f} uW")
    only_while_moving = all(
        any(iv.start_s - 0.1 <= t <= iv.end_s + 0.5 for iv in intervals)
        for t in node.cycle_start_times
    )
    print(f"cycles only while moving: {only_while_moving}")

    # Out-of-range check: move the bench to 5 m and watch the link die.
    far_bench = build_demo_bench()
    far_stats = far_bench.session(node.packets_sent, distance_m=5.0)
    print(f"\nat 5 m the bench decodes {far_stats.decoded}/"
          f"{far_stats.transmitted} packets "
          "(paper: 'Range is about 1 meter')")


if __name__ == "__main__":
    main()
