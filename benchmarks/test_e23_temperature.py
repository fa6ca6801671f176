"""E23 (extension) — The node across the automotive temperature range.

The paper closes on exactly this: "living in harsh environments such as
the automobile tire, nodes must be durable and robust" (§8).  Electrically
the harsh part is heat: CMOS deep-sleep leakage doubles every ~12 C and
NiMH self-discharge doubles every ~10 C, so the 6 uW budget measured on
the bench is a *room-temperature* number.

Regenerates: average node power and battery self-discharge tax across
winter/spring/summer operating points (the tire warms ~0.18 C per km/h of
sustained speed).  Shape checks: monotone growth with temperature; the
hot-highway tire costs 2-3x the bench number; harvesting still wins by a
wide margin exactly where the node runs hottest (driving = harvesting).
"""

from conftest import campaign_workers, print_table

from repro.studies import temperature_campaign

CONDITIONS = [
    ("winter, parked (-10 C)", -10.0, 0.0),
    ("spring, parked (20 C)", 20.0, 0.0),
    ("summer, parked (35 C)", 35.0, 0.0),
    ("summer, city (tire ~42 C)", 35.0, 40.0),
    ("summer, highway (tire ~57 C)", 35.0, 120.0),
]


def sweep():
    rows, stats = temperature_campaign(CONDITIONS, workers=campaign_workers())
    print(f"\n[runner] {stats.summary()}")
    return rows


def test_e23_temperature(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_table(
        "E23: the node across the automotive temperature range",
        ["condition", "tire temp", "node power", "cell self-discharge",
         "total burden"],
        [
            (label, f"{temp:.1f} C", f"{power * 1e6:.2f} uW",
             f"{sd * 1e6:.2f} uW", f"{(power + sd) * 1e6:.2f} uW")
            for label, temp, power, sd in rows
        ],
    )
    print("\nthe paper's 6 uW is a room-temperature number; heat is the "
          "real enemy — but the hot cases coincide with driving, when the "
          "harvester delivers hundreds of microwatts.")

    powers = [power for _, _, power, _ in rows]
    temps = [temp for _, temp, _, _ in rows]
    burdens = [power + sd for _, _, power, sd in rows]
    # Shape: node power grows monotonically with tire temperature.
    assert temps == sorted(temps)
    assert powers == sorted(powers)
    # Shape: the room-temperature point is the paper's ~6 uW.
    spring = powers[1]
    assert 5e-6 < spring < 8e-6
    # Shape: the hot-highway tire costs 2-3x the bench number.
    highway = powers[-1]
    assert 1.8 * spring < highway < 4.0 * spring
    # Shape: winter is *cheaper* than the bench (leakage freezes out).
    assert powers[0] < spring
    # Shape: the self-discharge tax also explodes with heat.
    sds = [sd for *_, sd in rows]
    assert sds[-1] > 4.0 * sds[1]
    # Shape: even the worst burden (~57 uW on the hot highway, most of it
    # the cell's own self-discharge) is far under the highway harvest
    # (~1-5 mW at those speeds, E12) — energy neutrality survives summer.
    assert max(burdens) < 100e-6
