"""E25 (ablation) — The six-second wake period.

The SP12's digital die hardwires a 6 s interrupt (paper §4.5).  Is that
the right duty cycle?  The ablation sweeps the wake period and measures
average power against reporting latency — exposing the design's real
structure: the always-on floor (~4.4 uW of management + sleep) dominates,
so faster reporting is surprisingly cheap, while slower reporting saves
almost nothing.

Shape checks: power is monotone-decreasing in period and saturates at the
floor; halving the period from 6 s to 3 s costs well under 2x; the active
energy per cycle is period-independent.
"""

from conftest import print_table

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.sensors.tpms import Sp12Tpms


def node_with_period(period_s: float) -> PicoCube:
    node = PicoCube(NodeConfig())
    node.sensor = Sp12Tpms(wake_period_s=period_s)
    return node


def sweep():
    rows = []
    for period in (1.0, 2.0, 6.0, 20.0, 60.0):
        node = node_with_period(period)
        node.run(1800.0)
        rows.append((period, node.average_power(), node.cycles_completed))
    return rows


def test_e25_wake_period(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    floor = min(power for _, power, _ in rows)
    by_period = {period: power for period, power, _ in rows}
    per_cycle = {
        period: (power - by_period[60.0]) * 1800.0 / max(cycles, 1)
        for period, power, cycles in rows
    }
    print_table(
        "E25: wake period vs average power (30 min runs)",
        ["period", "average power", "cycles", "reporting latency"],
        [
            (f"{period:.0f} s", f"{power * 1e6:.2f} uW", cycles,
             f"{period:.0f} s")
            for period, power, cycles in rows
        ],
    )
    print(f"\nthe always-on floor is ~{by_period[60.0] * 1e6:.1f} uW; the "
          "6 s choice spends only "
          f"{(by_period[6.0] - by_period[60.0]) * 1e6:.1f} uW above it.")

    powers = [power for _, power, _ in rows]
    # Shape: monotone decreasing in period.
    assert powers == sorted(powers, reverse=True)
    # Shape: even 5x faster reporting than the paper's 6 s stays within
    # ~5x of the 60 s floor (1 s -> ~19 uW: still a harvestable node).
    assert by_period[1.0] < 5.0 * by_period[60.0]
    # Shape: the crossover sits right around the paper's choice — at 6 s
    # the always-on floor still dominates (active share < 50 %), at 1 s
    # the active bursts dominate.  6 s is the knee.
    floor_w = by_period[60.0]
    assert (by_period[6.0] - floor_w) < by_period[6.0] * 0.5
    assert (by_period[1.0] - floor_w) > by_period[1.0] * 0.5
    # Shape: halving 6 s -> 3-ish (2 s here) costs well under 2x.
    assert by_period[2.0] < 2.0 * by_period[6.0]
    # Shape: slowing down 10x from 6 s only shaves the active sliver —
    # about a third — because the floor never sleeps.
    assert by_period[60.0] > 0.6 * by_period[6.0]
    # Shape: the incremental energy per cycle is period-independent
    # (same ~13 ms cycle regardless of how often it runs).
    cycle_energies = [per_cycle[p] for p in (1.0, 2.0, 6.0)]
    spread = max(cycle_energies) - min(cycle_energies)
    assert spread < 0.2 * max(cycle_energies)