"""E11 — The accelerometer motion demo (paper §6, Figs 7-8).

Claims: "If the Cube is sitting motionless on a table it is in deep sleep
mode. ...  When picked up and moved around, it generates sample data that
is plotted on the laptop.  If held still or placed on the table, the
plotting stops."

Regenerates: the demo timeline (samples only while handled), the laptop
display, and the power duty cycle.  Shape checks: zero cycles at rest;
streaming while handled; sleep power in the microwatts vs. orders more
while streaming.
"""

from conftest import print_table

from repro.core.builder import build_demo_bench, build_motion_node
from repro.sensors.environment import MotionInterval


INTERVALS = [MotionInterval(8.0, 14.0, peak_g=1.2),
             MotionInterval(25.0, 29.0, peak_g=2.5)]


def run_demo():
    node = build_motion_node(intervals=INTERVALS)
    node.run(35.0)
    bench = build_demo_bench()
    stats = bench.session(node.packets_sent, distance_m=1.0)
    return node, bench, stats


def test_e11_motion_demo(benchmark):
    node, bench, stats = benchmark.pedantic(run_demo, rounds=3, iterations=1)

    # Timeline table: cycle counts per second of the session.
    counts = {}
    for t in node.cycle_start_times:
        counts[int(t)] = counts.get(int(t), 0) + 1
    print_table(
        "E11: demo timeline (samples per second; handled 8-14 s and 25-29 s)",
        ["second", "samples", "handled?"],
        [
            (s, counts.get(s, 0),
             "yes" if any(iv.start_s <= s < iv.end_s for iv in INTERVALS)
             else "")
            for s in range(0, 35)
        ],
    )
    print(f"\nbench: {stats.decoded}/{stats.transmitted} decoded, "
          f"display holds {len(bench.display)} points")
    print(f"average session power: {node.average_power() * 1e6:.1f} uW")

    # Shape: dead quiet at rest.
    for second in list(range(0, 8)) + list(range(15, 25)) + list(range(30, 35)):
        assert counts.get(second, 0) == 0, f"sample at rest second {second}"
    # Shape: streaming while handled (~4 Hz at the 0.25 s interval).
    handled_seconds = [s for s in range(8, 14)] + [s for s in range(25, 29)]
    streamed = sum(counts.get(s, 0) for s in handled_seconds)
    assert streamed >= 0.8 * len(handled_seconds) * 4
    # Shape: the laptop plotted what was sent.
    assert stats.decoded == stats.transmitted
    assert len(bench.display) == stats.decoded
    # Shape: X/Y/Z values reflect handling (beyond gravity alone).
    max_x = max(abs(p["accel_x_g"]) for p in bench.display)
    assert max_x > 0.5
