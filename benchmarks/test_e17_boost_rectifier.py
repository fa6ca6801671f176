"""E17 — Variable-ratio rectification of low-voltage sources (paper §7.1).

Claim: "variable-ratio inverters can be used to ... efficiently rectify a
varying waveform from an energy scavenger.  Such an advanced SC converter
can efficiently rectify low-voltage sources such as MEMS vibration
generators and other miniature sources to charge energy buffers."

Regenerates: delivered power into the 1.2 V-class cell from a MEMS-scale
resonant vibration source, across rectifier architectures and ratio-set
richness.  Shape checks: plain rectifiers deliver exactly nothing (the
EMF never reaches the battery); the boost rectifier recovers most of the
matched-source maximum; more ratios recover more.
"""

from conftest import print_table

from repro.harvest.vibration import ResonantVibrationHarvester
from repro.power.rectifier import (
    BoostRectifier,
    DiodeBridgeRectifier,
    SynchronousRectifier,
)

V_BATT = 1.30


def sweep():
    vib = ResonantVibrationHarvester()
    waveform = vib.waveform(vib.characteristic_duration())
    args = (waveform.t, waveform.v_oc, waveform.r_source, V_BATT)
    architectures = [
        ("diode bridge", DiodeBridgeRectifier().rectify(*args)),
        ("synchronous", SynchronousRectifier().rectify(*args)),
        ("boost, ratios {1,2}", BoostRectifier(ratios=(1.0, 2.0)).rectify(*args)),
        ("boost, ratios {1..4}",
         BoostRectifier(ratios=(1.0, 1.5, 2.0, 3.0, 4.0)).rectify(*args)),
        ("boost, ratios {1..8}",
         BoostRectifier(ratios=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)).rectify(*args)),
    ]
    fractions = {
        label: BoostRectifier(ratios=ratios).matched_power_fraction(*args)
        for label, ratios in (
            ("{1,2}", (1.0, 2.0)),
            ("{1..4}", (1.0, 1.5, 2.0, 3.0, 4.0)),
            ("{1..8}", (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)),
        )
    }
    return vib, architectures, fractions


def test_e17_boost_rectifier(benchmark):
    vib, architectures, fractions = benchmark(sweep)

    print_table(
        f"E17: rectifying a {vib.emf_amplitude():.2f} V-peak MEMS source "
        f"into {V_BATT} V",
        ["architecture", "delivered", "extracted (P_in)"],
        [
            (label, f"{r.power_out * 1e6:.2f} uW", f"{r.power_in * 1e6:.2f} uW")
            for label, r in architectures
        ],
    )
    print_table(
        "E17b: fraction of the true matched-source maximum extracted",
        ["ratio set", "fraction"],
        [(label, f"{f:.1%}") for label, f in fractions.items()],
    )

    results = dict(architectures)
    # Shape: plain rectification is *impossible* — the source never
    # exceeds the battery voltage.
    assert vib.requires_boost(V_BATT)
    assert results["diode bridge"].power_out == 0.0
    assert results["synchronous"].power_out == 0.0
    # Shape: the variable-ratio converter unlocks the source.
    assert results["boost, ratios {1..4}"].power_out > 10e-6
    # Shape: richer ratio sets approximate the matched maximum better.
    assert fractions["{1,2}"] < fractions["{1..4}"] <= fractions["{1..8}"]
    assert fractions["{1..8}"] > 0.85
