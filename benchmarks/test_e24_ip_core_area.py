"""E24 (extension) — Power-management IP cores take insignificant area.

Paper §7.1's closing vision: "We envision a library of parameterizable
management cores that can be utilized as black boxes in any chip design,
eliminating the need for separate packages.  These cores would be
tailored to the needs of the chip ... while taking an insignificant
amount of real estate."

Regenerates: the silicon price list — minimum die area for each of the
PicoCube's two converters at its design load and the paper's >84 %
efficiency, across load levels and efficiency targets.  Shape checks:
both cores fit in well under a tenth of the 4 mm^2 die ("insignificant");
area grows with load and with the efficiency target; capacitors dominate
the floorplan.
"""

from conftest import print_table

from repro.power.optimizer import minimum_area_for_efficiency, optimize_area_split
from repro.power.topologies import doubler, step_down_3_to_2

DIE_AREA_MM2 = 4.0  # the paper's ~2 mm x 2 mm converter IC


def sweep():
    cores = [
        ("1:2 MCU core @ 0.5 mA", doubler(), 1.2, 2.1, 0.5e-3),
        ("1:2 MCU core @ 2 mA", doubler(), 1.2, 2.1, 2e-3),
        ("3:2 radio core @ 1 mA", step_down_3_to_2(), 1.2, 0.71, 1e-3),
        ("3:2 radio core @ 4 mA", step_down_3_to_2(), 1.2, 0.71, 4e-3),
    ]
    area_rows = []
    for label, network, v_in, v_target, i_load in cores:
        design = minimum_area_for_efficiency(
            label, network, v_in=v_in, v_target=v_target, i_load=i_load,
            eta_target=0.84,
        )
        area_rows.append((label, design))
    # Efficiency-vs-area curve for the radio core at full load.
    curve = []
    for area_mm2 in (0.18, 0.3, 0.5, 1.0, 2.0):
        design = optimize_area_split(
            "3:2", step_down_3_to_2(), v_in=1.2, v_target=0.71,
            i_load=4e-3, area_total_m2=area_mm2 * 1e-6,
        )
        curve.append((area_mm2, design))
    return area_rows, curve


def test_e24_ip_core_area(benchmark):
    area_rows, curve = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_table(
        "E24a: minimum silicon for the paper's >84% efficiency",
        ["core", "area", "% of the 4 mm^2 die", "cap share"],
        [
            (label, f"{d.area_mm2:.4f} mm^2",
             f"{d.area_mm2 / DIE_AREA_MM2:.2%}",
             f"{d.cap_fraction:.0%}")
            for label, d in area_rows
        ],
    )
    print_table(
        "E24b: 3:2 radio core efficiency vs allotted area (4 mA load)",
        ["area", "efficiency", "cap share"],
        [
            (f"{mm2:.2f} mm^2", f"{d.efficiency:.1%}", f"{d.cap_fraction:.0%}")
            for mm2, d in curve
        ],
    )

    # Shape: "insignificant amount of real estate" — every core under
    # 10 % of the die; the whole two-core set under 15 %.
    for _, design in area_rows:
        assert design.area_mm2 < 0.1 * DIE_AREA_MM2
    total = sum(d.area_mm2 for _, d in area_rows[1::2])  # worst-load pair
    assert total < 0.15 * DIE_AREA_MM2
    # Shape: heavier loads need more silicon.
    by_label = dict(area_rows)
    assert (by_label["1:2 MCU core @ 2 mA"].area_total_m2
            > by_label["1:2 MCU core @ 0.5 mA"].area_total_m2)
    assert (by_label["3:2 radio core @ 4 mA"].area_total_m2
            > by_label["3:2 radio core @ 1 mA"].area_total_m2)
    # Shape: efficiency grows monotonically with area and saturates.
    etas = [d.efficiency for _, d in curve]
    assert etas == sorted(etas)
    assert etas[-1] - etas[-2] < 0.02  # diminishing returns
    # Shape: capacitors own the floorplan at every point.
    for _, design in curve:
        assert design.cap_fraction > 0.5
