#!/usr/bin/env python3
"""Energy-neutrality design study: which ambient sources sustain a PicoCube?

The paper's premise (§1): sensors must outlive their batteries, so the
node must live on harvested energy.  This study measures the node's real
average draw, then walks the harvester catalogue — tire rotation at
various speeds, a bicycle wheel, an electromagnetic shaker, indoor solar,
and a MEMS vibration source (which needs the §7.1 variable-ratio boost
rectifier to be usable at all).
"""

import os

from repro.core.builder import build_tpms_node
from repro.harvest.vibration import ResonantVibrationHarvester
from repro.power.rectifier import BoostRectifier
from repro.studies import energy_neutral_campaign


def main() -> None:
    # Step 1: what does the node actually need?
    node = build_tpms_node()
    node.run(3600.0)
    demand = node.average_power()
    v_batt = node.battery.open_circuit_voltage()
    print(f"node demand (measured over 1 h): {demand * 1e6:.2f} uW "
          f"at {v_batt:.2f} V battery\n")

    # Step 2: fan the harvester catalogue out over the process pool.
    rows, stats = energy_neutral_campaign(
        v_batt, workers=min(4, os.cpu_count() or 1)
    )

    print(f"{'source':<36} {'harvest':>12} {'vs demand':>10}  verdict")
    print("-" * 74)
    for name, power in rows:
        ratio = power / demand if demand > 0 else 0.0
        verdict = "SUSTAINS" if ratio >= 1.0 else "starves"
        print(f"{name:<36} {power * 1e6:9.2f} uW {ratio:9.1f}x  {verdict}")
    print(f"\n[runner] {stats.summary()}")

    # The boost-rectifier punchline (paper section 7.1).
    vib = ResonantVibrationHarvester()
    boost = BoostRectifier()
    wf = vib.waveform(vib.characteristic_duration())
    print(
        f"\nMEMS source EMF amplitude: {vib.emf_amplitude():.2f} V — below the "
        f"{v_batt:.2f} V battery, so plain rectification delivers nothing."
    )
    fraction = boost.matched_power_fraction(wf.t, wf.v_oc, wf.r_source, v_batt)
    print(
        f"the variable-ratio SC (boost) rectifier of paper section 7.1 "
        f"extracts {fraction:.0%} of the true matched-source maximum"
    )


if __name__ == "__main__":
    main()
