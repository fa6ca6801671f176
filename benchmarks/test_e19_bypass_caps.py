"""E19 (ablation) — Bypass capacitors for burst current (paper §4.4).

Claim: "batteries typically exhibit poor burst current performance
relative to capacitors.  This can be addressed by using bypass
capacitors" — which is why the storage board carries "several filter
capacitors" and the radio board bypasses the 0.65 V supply.

Regenerates: rail sag during the radio burst vs. bypass capacitance, at
a healthy and a nearly-depleted cell.  Shape checks: the depleted cell's
unbuffered sag is several times the healthy cell's; enough capacitance
recovers it; the capacitance needed for a 5 mV budget is tens-to-hundreds
of microfarads (i.e. the 'filter capacitors' the board actually carries);
the standing cost of the capacitor is nanowatts, not microwatts.
"""

from conftest import print_table

from repro.storage.hybrid import HybridBuffer
from repro.storage.nimh import NiMHCell

BURST = (4.0e-3, 0.3e-3)  # the radio PA: ~4 mA for ~0.3 ms


def sweep():
    rows = []
    for soc_label, soc in (("healthy (60%)", 0.6), ("depleted (5%)", 0.05)):
        for cap in (0.0, 10e-6, 47e-6, 220e-6, 1000e-6):
            cell = NiMHCell()
            cell.set_soc(soc)
            if cap == 0.0:
                buffer = HybridBuffer(cell, bypass_capacitance=1e-12)
                sag = buffer.analyze_burst(*BURST).sag_unbuffered
            else:
                buffer = HybridBuffer(cell, bypass_capacitance=cap)
                sag = buffer.analyze_burst(*BURST).sag_buffered
            rows.append((soc_label, cap, sag))
    # Sizing: what does a 5 mV budget cost at each state of charge?
    sizing = []
    for soc_label, soc in (("healthy (60%)", 0.6), ("depleted (5%)", 0.05)):
        cell = NiMHCell()
        cell.set_soc(soc)
        buffer = HybridBuffer(cell)
        sizing.append(
            (soc_label,
             buffer.required_capacitance(*BURST, sag_budget=5e-3),
             buffer.leakage_power())
        )
    return rows, sizing


def test_e19_bypass_caps(benchmark):
    rows, sizing = benchmark(sweep)

    print_table(
        "E19: radio-burst rail sag vs bypass capacitance",
        ["cell state", "bypass C", "sag"],
        [
            (label, f"{cap * 1e6:.0f} uF" if cap else "none",
             f"{sag * 1e3:.2f} mV")
            for label, cap, sag in rows
        ],
    )
    print_table(
        "E19b: capacitance for a 5 mV sag budget",
        ["cell state", "required C", "cap leakage"],
        [
            (label, f"{cap * 1e6:.0f} uF", f"{leak * 1e9:.0f} nW")
            for label, cap, leak in sizing
        ],
    )

    by_state = {}
    for label, cap, sag in rows:
        by_state.setdefault(label, {})[cap] = sag
    healthy = by_state["healthy (60%)"]
    depleted = by_state["depleted (5%)"]
    # Shape: the depleted cell's sag is several times worse unbuffered.
    assert depleted[0.0] > 3.0 * healthy[0.0]
    # Shape: sag falls monotonically with capacitance.
    for state in (healthy, depleted):
        caps = sorted(state)
        sags = [state[c] for c in caps]
        assert sags == sorted(sags, reverse=True)
    # Shape: 1000 uF nearly erases the burst even when depleted.
    assert depleted[1000e-6] < 0.1 * depleted[0.0]
    # Shape: the 5 mV design lands in the real filter-cap decade and its
    # standing cost is negligible against the 6 uW budget.
    for _, cap, leak in sizing:
        assert 10e-6 < cap < 2000e-6
        assert leak < 0.2e-6
