#!/usr/bin/env python
"""Regenerate tests/core/golden_train_solutions.json.

The golden file pins the *legacy* hand-written ``CotsPowerTrain.solve`` /
``IcPowerTrain.solve`` outputs (captured at commit 092b574, immediately
before the RailGraph refactor) across a grid of battery voltages spanning
in-range and dropout/brownout edges and all radio-gated load states.  The
equivalence suite (``tests/core/test_graph_equivalence.py``) asserts the
declarative graph solver reproduces every field bit-for-bit
(``float.hex`` equality), which is the refactor's load-bearing guarantee.

Only rerun this against a commit whose solver outputs are *known good*;
regenerating it against a broken solver would just pin the breakage::

    PYTHONPATH=src python tools/capture_train_goldens.py
"""

from __future__ import annotations

import json
import os

from repro.core.power_train import LoadState, make_power_train
from repro.errors import ElectricalError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(REPO_ROOT, "tests", "core",
                        "golden_train_solutions.json")

#: Battery grid: NiMH plateau points plus the COTS pump gain-hop edge
#: (1.125 V), the IC 1:2 regulation edge (1.05 V), the pump input-range
#: rails (0.9 / 1.8 V), and points beyond both ends.
V_BATTERY_GRID = [
    0.85, 0.9, 0.95, 1.0, 1.05, 1.08, 1.1, 1.12, 1.125, 1.13, 1.15,
    1.2, 1.25, 1.3, 1.35, 1.4, 1.5, 1.6, 1.7, 1.8, 1.85, 1.9,
]

#: (label, LoadState kwargs, radio_enabled)
LOAD_CASES = [
    ("idle", {}, False),
    ("sleep", {"i_mcu": 0.7e-6, "i_sensor": 0.3e-6}, False),
    ("active", {"i_mcu": 250e-6, "i_sensor": 450e-6}, False),
    ("radio-idle", {}, True),
    ("sleep-radio-on", {"i_mcu": 0.7e-6, "i_sensor": 0.3e-6}, True),
    ("tx-light", {"i_mcu": 250e-6, "i_sensor": 0.3e-6,
                  "i_radio_digital": 10e-6, "i_radio_rf": 0.5e-3}, True),
    ("tx", {"i_mcu": 250e-6, "i_sensor": 0.3e-6,
            "i_radio_digital": 50e-6, "i_radio_rf": 4.0e-3}, True),
    ("tx-heavy", {"i_mcu": 250e-6, "i_sensor": 0.3e-6,
                  "i_radio_digital": 120e-6, "i_radio_rf": 6.0e-3}, True),
]

#: Degradation loss factors exercised on a subset of cases.
DEGRADED_CASES = [("sleep", 1.37), ("tx", 1.37)]


def solve_case(kind: str, v_battery: float, case_kwargs: dict,
               radio: bool, loss_factor: float = 1.0) -> dict:
    train = make_power_train(kind)
    if loss_factor != 1.0:
        train.set_degradation(loss_factor)
    if radio:
        train.enable_radio()
    loads = LoadState(**case_kwargs)
    try:
        solution = train.solve(v_battery, loads)
    except ElectricalError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "i_battery": solution.i_battery.hex(),
        "v_mcu_rail": solution.v_mcu_rail.hex(),
        "subsystem_power": {
            channel: watts.hex()
            for channel, watts in solution.subsystem_power.items()
        },
    }


def main() -> int:
    cases = []
    for kind in ("cots", "ic"):
        for label, kwargs, radio in LOAD_CASES:
            for v in V_BATTERY_GRID:
                cases.append({
                    "kind": kind, "case": label, "v_battery": v,
                    "loads": kwargs, "radio": radio, "loss_factor": 1.0,
                    "result": solve_case(kind, v, kwargs, radio),
                })
        case_by_label = {label: (kw, r) for label, kw, r in LOAD_CASES}
        for label, loss in DEGRADED_CASES:
            kwargs, radio = case_by_label[label]
            for v in V_BATTERY_GRID:
                cases.append({
                    "kind": kind, "case": f"{label}@x{loss}",
                    "v_battery": v, "loads": kwargs, "radio": radio,
                    "loss_factor": loss,
                    "result": solve_case(kind, v, kwargs, radio, loss),
                })
    payload = {
        "comment": "bit-exact legacy PowerTrain.solve outputs "
                   "(float.hex); see tools/capture_train_goldens.py",
        "cases": cases,
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    solved = sum(1 for c in cases if "error" not in c["result"])
    errored = len(cases) - solved
    print(f"wrote {os.path.relpath(OUT_PATH, REPO_ROOT)}: "
          f"{len(cases)} cases ({solved} solved, {errored} error edges)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
