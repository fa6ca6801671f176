"""E4 — Switched-capacitor converter efficiency (paper §7.1, ref [14]).

Claims: "The converters exceed 84 % efficiency"; SC converters "operate
efficiently over large load ranges by varying the switching frequency."

Regenerates: efficiency-vs-load curves for the IC's 1:2 and 3:2
converters under PFM regulation.  Shape checks: >84 % at the design
loads; >80 % across better than two decades of load; PFM frequency is
monotone in load.
"""

from conftest import print_table

from repro.power.converter_ic import ConverterIC
from repro.power.optimizer import (
    efficiency_curve,
    log_spaced_loads,
    wide_load_range_efficiency,
)


def sweep():
    ic = ConverterIC()
    v_batt = 1.2
    mcu_points = efficiency_curve(
        ic.mcu_converter, v_batt, log_spaced_loads(2e-6, 2e-3, 12)
    )
    ic.enable_radio_rail()
    radio_points = efficiency_curve(
        ic.radio_converter, v_batt, log_spaced_loads(20e-6, 6e-3, 12)
    )
    coverage_mcu = wide_load_range_efficiency(
        ic.mcu_converter, v_batt, 1e-5, 2e-3, threshold=0.80
    )
    coverage_radio = wide_load_range_efficiency(
        ic.radio_converter, v_batt, 1e-4, 6e-3, threshold=0.80
    )
    return mcu_points, radio_points, coverage_mcu, coverage_radio


def test_e4_sc_efficiency(benchmark):
    mcu_points, radio_points, coverage_mcu, coverage_radio = benchmark(sweep)

    for label, points in (("1:2 (MCU rail, 2.1 V)", mcu_points),
                          ("3:2 (radio rail, 0.71 V)", radio_points)):
        print_table(
            f"E4: {label} efficiency vs load (paper: exceed 84%)",
            ["load", "f_sw", "efficiency"],
            [
                (f"{p.i_out * 1e6:.1f} uA", f"{p.f_sw / 1e3:.1f} kHz",
                 f"{p.efficiency:.1%}")
                for p in points
            ],
        )
    print(f"\nload-range coverage at eta>=80%: "
          f"1:2 {coverage_mcu:.0%}, 3:2 {coverage_radio:.0%} of sweep points")

    # Shape: both converters exceed 84 % at their mid/design loads.
    assert max(p.efficiency for p in mcu_points) > 0.84
    assert max(p.efficiency for p in radio_points) > 0.84
    # Shape: efficient over a large load range (the PFM point).
    assert coverage_mcu > 0.85
    assert coverage_radio > 0.85
    # Shape: PFM frequency rises monotonically with load.
    for points in (mcu_points, radio_points):
        freqs = [p.f_sw for p in points]
        assert freqs == sorted(freqs)
