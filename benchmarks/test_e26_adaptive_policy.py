"""E26 (extension) — Energy-aware adaptive duty cycling.

The SP12's 6 s interrupt is hardwired (paper §4.5).  On the tire that is
fine — driving recharges daily — but the paper's broader decades-in-a-
building vision meets sources that disappear for days.  This experiment
pits the fixed 6 s node against an adaptive node (SoC-ladder throttling,
``core/policy.py``) on a marginal intermittent harvest with a small
buffer.

Shape checks: the fixed node browns out and dies permanently; the
adaptive node throttles, survives the drought, and delivers data for the
whole mission; the price is temporal resolution, not availability.
"""

from conftest import print_table

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.core.policy import AdaptiveScheduler
from repro.storage.nimh import NiMHCell
from repro.units import DAY, HOUR


def weak_intermittent_harvest(t: float) -> float:
    """12 uA for one hour in five — a skylight on a cloudy week."""
    return 12e-6 if int(t / HOUR) % 5 == 0 else 0.0


def build(adaptive: bool):
    cell = NiMHCell(capacity_mah=0.4)
    cell.set_soc(0.45)
    node = PicoCube(NodeConfig(), battery=cell)
    node.attach_charger(weak_intermittent_harvest, update_period_s=300.0)
    scheduler = AdaptiveScheduler(node) if adaptive else None
    return node, scheduler


def run_mission():
    results = {}
    for label, adaptive in (("fixed-6s", False), ("adaptive", True)):
        node, scheduler = build(adaptive)
        daily = []
        for _ in range(3):
            node.run(DAY)
            daily.append((node.battery.soc, node.cycles_completed,
                          node.browned_out))
        results[label] = {
            "node": node,
            "daily": daily,
            "scheduler": scheduler,
        }
    return results


def test_e26_adaptive_policy(benchmark):
    results = benchmark.pedantic(run_mission, rounds=1, iterations=1)

    rows = []
    for label, r in results.items():
        for day, (soc, cycles, dead) in enumerate(r["daily"]):
            rows.append(
                (label, day + 1, f"{soc:.3f}", cycles,
                 "DEAD" if dead else "alive")
            )
    print_table(
        "E26: fixed vs adaptive duty cycling on a marginal harvest "
        "(0.4 mAh buffer)",
        ["node", "day", "soc", "cycles total", "status"],
        rows,
    )
    adaptive = results["adaptive"]
    fixed = results["fixed-6s"]
    scheduler = adaptive["scheduler"]
    print(f"\nadaptive policy: {scheduler.throttle_events} throttle and "
          f"{scheduler.recover_events} recovery transitions; final period "
          f"{scheduler.current_period_s:.0f} s")

    # Shape: the fixed node dies; the adaptive one survives the mission.
    assert fixed["node"].browned_out
    assert not adaptive["node"].browned_out
    # Shape: the fixed node's output collapses in its final day (death
    # partway through: far fewer than the 14400 scheduled samples).
    fixed_daily_cycles = [c for _, c, _ in fixed["daily"]]
    assert fixed_daily_cycles[-1] - fixed_daily_cycles[-2] < 0.5 * 14400
    # Shape: the adaptive node delivers data every single day.
    adaptive_daily = [c for _, c, _ in adaptive["daily"]]
    assert all(b > a for a, b in zip(adaptive_daily, adaptive_daily[1:]))
    # Shape: survival was bought with throttling, and the ladder engaged.
    assert scheduler.throttle_events >= 1
    assert scheduler.throttled
    # Shape: before dying, the fixed node out-sampled the adaptive one —
    # the trade is resolution for availability.
    assert fixed_daily_cycles[0] > adaptive_daily[0]