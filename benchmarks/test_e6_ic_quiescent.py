"""E6 — Converter IC standing current (paper §7.1).

Claims: "In this IC, the leakage current was approximately 6.5 uA,
partially attributable to the pad ring"; the current reference "is biased
at 18 nA independent of VDD and mildly dependent on temperature."

Regenerates: the standing-current ledger and the reference's temperature
behaviour.  Shape checks: total in the 5.5-7.5 uA band; pad ring is the
largest entry; reference current is VDD-independent with a mild tempco.
"""

import pytest
from conftest import print_table

from repro.power.converter_ic import ConverterIC


def measure():
    ic = ConverterIC()
    ledger = ic.quiescent_breakdown()
    total = ic.quiescent_current()
    ref = ic.current_reference
    temps = [(t, ref.current(t)) for t in (273.0, 300.0, 325.0, 350.0)]
    return ledger, total, temps, ref


def test_e6_ic_quiescent(benchmark):
    ledger, total, temps, ref = benchmark(measure)

    print_table(
        "E6a: power IC standing-current ledger (paper: ~6.5 uA)",
        ["source", "current"],
        [(name, f"{amps * 1e9:.1f} nA") for name, amps in ledger.items()]
        + [("TOTAL", f"{total * 1e6:.2f} uA")],
    )
    print_table(
        "E6b: 18 nA reference vs temperature",
        ["temperature", "I_ref"],
        [(f"{t:.0f} K", f"{i * 1e9:.2f} nA") for t, i in temps],
    )

    # Shape: ~6.5 uA total.
    assert 5.5e-6 < total < 7.5e-6
    # Shape: "partially attributable to the pad ring" — largest entry.
    assert ledger["pad-ring"] == max(ledger.values())
    assert ledger["pad-ring"] > 0.5 * total
    # Shape: 18 nA nominal, mild temperature dependence (< +-15 % over
    # the automotive-ish range swept).
    assert ref.current(300.0) == pytest.approx(18e-9, rel=0.01)
    for _, current in temps:
        assert abs(current - 18e-9) / 18e-9 < 0.15
    # Shape: the always-on blocks (references) are nanoamp-class — they
    # are NOT what makes the 6.5 uA; the pads are.
    analog = ledger["current-reference"] + ledger["sampled-bandgap"]
    assert analog < 0.05 * total
