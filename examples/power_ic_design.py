#!/usr/bin/env python3
"""Designing the power-interface IC (paper §7.1, refs [13, 14]).

Walks the design flow the BWRC team followed: analyse the candidate
switched-capacitor topologies with charge-multiplier vectors, size the 1:2
and 3:2 converters for the PicoCube's rails, sweep their efficiency over
load under PFM regulation, choose the rectifier, and add up the standing
current against the measured 6.5 uA.
"""

from repro.power.converter_ic import ConverterIC
from repro.power.optimizer import (
    compare_step_up_topologies,
    efficiency_curve,
    log_spaced_loads,
    optimize_fsl_fraction,
)
from repro.power.topologies import (
    all_step_up_families,
    doubler,
    step_down_3_to_2,
)


def main() -> None:
    # ---- step 1: topology analysis -----------------------------------------
    print("=" * 76)
    print("Charge-multiplier analysis (Seeman-Sanders, ref [13])")
    print("=" * 76)
    for build, label in ((doubler, "1:2 doubler (Fig 10a)"),
                         (step_down_3_to_2, "3:2 step-down (Fig 10b)")):
        analysis = build().analyze()
        print(f"\n{label}: ratio {analysis.ratio:.3f}")
        print(f"  sum|a_c| = {analysis.cap_multiplier_sum:.3f}   "
              f"sum|a_r| = {analysis.switch_multiplier_sum:.3f}")
        print(f"  cap energy metric {analysis.cap_energy_metric():.3f}   "
              f"switch VA metric {analysis.switch_va_metric():.3f}")

    print("\nlarge-ratio step-up families at ratio 5 (for future scavengers):")
    print(f"  {'family':<16} {'caps':>5} {'switches':>9} "
          f"{'sum|a_c|':>9} {'cap-E':>7} {'sw-VA':>7}")
    for row in compare_step_up_topologies(5, all_step_up_families()):
        print(f"  {row.family:<16} {row.cap_count:>5} {row.switch_count:>9} "
              f"{row.cap_multiplier_sum:>9.2f} {row.cap_energy_metric:>7.2f} "
              f"{row.switch_va_metric:>7.2f}")

    # ---- step 2: the IC's converters ----------------------------------------
    print()
    print("=" * 76)
    print("The PicoCube power IC (Fig 9)")
    print("=" * 76)
    ic = ConverterIC()
    print(f"\n1:2 converter budgets: C_tot = "
          f"{ic.mcu_converter.c_total * 1e9:.2f} nF, "
          f"G_tot = {ic.mcu_converter.g_total:.2f} S")
    print(f"3:2 converter budgets: C_tot = "
          f"{ic.radio_converter.c_total * 1e9:.2f} nF, "
          f"G_tot = {ic.radio_converter.g_total:.2f} S")

    split = optimize_fsl_fraction(
        "opt", doubler(), v_in=1.2, v_target=2.1, i_load=500e-6,
        tau_gate=ic.config.tau_gate,
        alpha_bottom_plate=ic.config.alpha_bottom_plate,
    )
    print(f"optimal SSL/FSL split for the 1:2 at 500 uA: "
          f"fsl_fraction = {split['fsl_fraction']:.1f} "
          f"(eta = {split['efficiency']:.1%})")

    print("\n1:2 efficiency vs load (PFM regulation; paper: 'exceed 84%'):")
    print(f"  {'load':>10} {'f_sw':>10} {'eta':>7}")
    for point in efficiency_curve(
        ic.mcu_converter, 1.2, log_spaced_loads(5e-6, 2e-3, 8)
    ):
        print(f"  {point.i_out * 1e6:8.1f} uA {point.f_sw / 1e3:8.1f} kHz "
              f"{point.efficiency:7.1%}")

    ic.enable_radio_rail()
    print("\n3:2 + LDO radio chain at the PA's 4 mA:")
    op = ic.radio_rail(1.2, 4e-3)
    print(f"  battery {op.p_in * 1e3:.2f} mW -> 0.65 V rail "
          f"{op.p_out * 1e3:.2f} mW  (chain eta {op.efficiency:.1%})")
    ic.disable_radio_rail()

    # ---- step 3: the standing-current ledger ---------------------------------
    print("\nstanding current ledger (paper: ~6.5 uA, 'partially "
          "attributable to the pad ring'):")
    for name, amps in ic.quiescent_breakdown().items():
        print(f"  {name:<22} {amps * 1e9:10.1f} nA")
    print(f"  {'TOTAL':<22} {ic.quiescent_current() * 1e6:10.2f} uA")


if __name__ == "__main__":
    main()
