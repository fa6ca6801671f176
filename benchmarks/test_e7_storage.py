"""E7 — Storage technology comparison (paper §4.4).

Claims: "220 J/g for a NiMH battery vs. 10 J/g for a super capacitor or
2 J/g for a typical capacitor"; NiMH's "discharge characteristics provide
a nominal 1.2 V that is stable until just prior to full discharge";
"batteries typically exhibit poor burst current performance relative to
capacitors."

Regenerates: the three-way comparison table on the paper's axes.  Shape
checks: the energy-density ordering and magnitudes; NiMH's flat plateau
vs. the capacitors' proportional voltage; the capacitors' burst-current
advantage.
"""

import pytest
from conftest import print_table

from repro.storage.capacitors import ceramic_capacitor, supercapacitor
from repro.storage.nimh import NiMHCell


def characterise(storage):
    """Measure one technology on the paper's comparison axes."""
    storage.set_soc(0.9)
    v_90 = storage.open_circuit_voltage()
    storage.set_soc(0.2)
    v_20 = storage.open_circuit_voltage()
    flatness = (v_90 - v_20) / v_90
    storage.set_soc(0.9)
    # Burst capability: current that sags the terminal by 10 %.
    burst = storage.max_burst_current(0.9 * v_90)
    return {
        "density": storage.energy_density(),
        "flatness": flatness,
        "burst": burst,
        "resistance": storage.internal_resistance(),
    }


def sweep():
    technologies = {
        "NiMH 15 mAh": NiMHCell(),
        "supercap": supercapacitor(),
        "ceramic cap": ceramic_capacitor(),
    }
    return {name: characterise(s) for name, s in technologies.items()}


def test_e7_storage(benchmark):
    results = benchmark(sweep)

    print_table(
        "E7: storage comparison (paper: 220 vs 10 vs 2 J/g)",
        ["technology", "J/g", "V sag 90->20% soc", "burst @10% sag", "ESR"],
        [
            (name,
             f"{r['density']:.1f}",
             f"{r['flatness']:.1%}",
             f"{r['burst'] * 1e3:.1f} mA",
             f"{r['resistance']:.2f} ohm")
            for name, r in results.items()
        ],
    )

    nimh = results["NiMH 15 mAh"]
    cap = results["ceramic cap"]
    sc = results["supercap"]

    # Shape: the paper's density numbers (within 10 %).
    assert nimh["density"] == pytest.approx(220.0, rel=0.1)
    assert sc["density"] == pytest.approx(10.0, rel=0.1)
    assert cap["density"] == pytest.approx(2.0, rel=0.1)
    # Shape: NiMH plateau is flat; capacitor voltage tracks charge.
    assert nimh["flatness"] < 0.10
    assert sc["flatness"] > 0.5
    assert cap["flatness"] > 0.5
    # Shape: the low-ESR bypass capacitor wins bursts by orders of
    # magnitude — exactly why the paper pairs the battery with bypass
    # caps ("This can be addressed by using bypass capacitors").
    assert cap["burst"] > 100.0 * nimh["burst"]
    # Shape: the coin-cell supercap's tens-of-ohms ESR makes it no burst
    # hero either — density is not the only thing batteries trade away.
    assert sc["resistance"] > nimh["resistance"]
