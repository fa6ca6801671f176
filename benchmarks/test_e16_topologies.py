"""E16 — Large-ratio SC topology comparison (paper §7.1, ref [13]).

Claim: "To date, only simple fixed-ratio SC converters have been
implemented and used in industry.  However, large-ratio conversions are
possible through topologies in [13]" — whose analysis ranks the families
by capacitor energy (SSL) and switch VA (FSL) cost metrics.

Regenerates: the Seeman-Sanders style comparison table across ratios and
families, computed from first principles by the charge-flow network
analyzer.  Shape checks: the published qualitative rankings — series-
parallel minimises capacitor energy, the ladder uses only V_in-rated
devices, Dickson's capacitor cost grows ~n^2, Fibonacci reaches the
largest ratio per capacitor.
"""

import pytest
from conftest import campaign_workers, print_table

from repro.campaigns import topology_campaign
from repro.power.topologies import (
    fibonacci_ratio,
    fibonacci_step_up,
    step_up_family,
)
from repro.runner import ResultStore


def sweep(root):
    store = ResultStore(str(root))
    tables, stats = topology_campaign(
        ratios=(2, 3, 5, 8), workers=campaign_workers(), store=store
    )
    # A second pass must be answered entirely from the result store.
    tables_again, stats_again = topology_campaign(
        ratios=(2, 3, 5, 8), workers=campaign_workers(), store=store
    )
    assert stats_again.cache_hit_rate == 1.0
    assert {r: [x.family for x in rows] for r, rows in tables_again.items()} == {
        r: [x.family for x in rows] for r, rows in tables.items()
    }
    print(f"\n[runner] {stats.summary()}")
    return tables


def test_e16_topologies(benchmark, tmp_path):
    tables = benchmark.pedantic(sweep, args=(tmp_path,), rounds=1,
                                iterations=1)

    for ratio, rows in tables.items():
        print_table(
            f"E16: step-up families at ratio {ratio}",
            ["family", "caps", "switches", "sum|a_c|", "sum|a_r|",
             "cap-E metric", "switch-VA"],
            [
                (r.family, r.cap_count, r.switch_count,
                 f"{r.cap_multiplier_sum:.2f}",
                 f"{r.switch_multiplier_sum:.2f}",
                 f"{r.cap_energy_metric:.2f}",
                 f"{r.switch_va_metric:.2f}")
                for r in rows
            ],
        )

    for ratio, rows in tables.items():
        by_family = {r.family: r for r in rows}
        sp = by_family["series-parallel"]
        dickson = by_family["dickson"]
        ladder = by_family["ladder"]
        # Ranking 1: series-parallel minimises the capacitor energy metric.
        assert sp.cap_energy_metric <= min(
            r.cap_energy_metric for r in rows
        ) + 1e-9
        # Ranking 2: Dickson's cap energy metric grows ~ n(n-1)/2 vs SP's
        # (n-1): strictly worse for ratios above 2.
        if ratio > 2:
            assert dickson.cap_energy_metric > sp.cap_energy_metric
        assert dickson.cap_energy_metric == pytest.approx(
            ratio * (ratio - 1) / 2.0, rel=1e-6
        )
        # Ranking 3: the ladder's charge multipliers are the largest
        # (charge hops rung to rung) but its devices all rated V_in.
        if ratio > 2:
            assert ladder.cap_multiplier_sum > sp.cap_multiplier_sum

    # Ranking 4: Fibonacci reaches the highest ratio per capacitor count.
    for stages in (1, 2, 3, 4):
        ratio = fibonacci_ratio(stages)
        fib_caps = len(fibonacci_step_up(stages).capacitors)
        sp_caps = len(step_up_family("series-parallel", ratio).capacitors)
        assert fib_caps <= sp_caps
    assert fibonacci_ratio(4) == 8
    assert len(fibonacci_step_up(4).capacitors) == 4  # vs 7 for SP at 8x
