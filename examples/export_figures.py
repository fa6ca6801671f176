#!/usr/bin/env python3
"""Export the paper's figures as CSV for external plotting.

Writes one CSV per regenerated figure/table into ``figures/``:

* ``fig6_power_profile.csv`` — the on-cycle power profile, per channel;
* ``sc_efficiency.csv``      — converter efficiency vs load (E4);
* ``rectifier_comparison.csv`` — delivered power vs input EMF (E5);
* ``link_budget.csv``        — received power vs distance (E9);
* ``battery_week.csv``       — state of charge over a deployment week (E12).

Point any plotting tool at them; every series carries headers.
"""

import os

import numpy as np

from repro.core.builder import build_tpms_deployment
from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.power.converter_ic import ConverterIC
from repro.power.optimizer import efficiency_curve, log_spaced_loads
from repro.power.rectifier import (
    DiodeBridgeRectifier,
    IdealRectifier,
    SynchronousRectifier,
)
from repro.radio.antenna import PatchAntenna
from repro.radio.link import RadioLink
from repro.sim.export import recorder_to_csv, write_csv
from repro.units import HOUR

OUT_DIR = "figures"


def export_fig6() -> str:
    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    t0 = node.cycle_start_times[0]
    csv = recorder_to_csv(node.recorder, t0 - 1e-3, t0 + 16e-3, 2e-5)
    path = os.path.join(OUT_DIR, "fig6_power_profile.csv")
    write_csv(path, csv)
    return path


def export_sc_efficiency() -> str:
    ic = ConverterIC()
    lines = ["i_out_a,eta_1to2,f_sw_1to2_hz"]
    for p in efficiency_curve(ic.mcu_converter, 1.2, log_spaced_loads(2e-6, 2e-3, 30)):
        lines.append(f"{p.i_out:.6g},{p.efficiency:.6g},{p.f_sw:.6g}")
    path = os.path.join(OUT_DIR, "sc_efficiency.csv")
    write_csv(path, "\n".join(lines) + "\n")
    return path


def export_rectifiers() -> str:
    lines = ["emf_peak_v,p_ideal_w,p_bridge_w,p_sync_w"]
    for amplitude in np.linspace(1.4, 3.2, 19):
        t = np.linspace(0.0, 0.1, 20001)
        v = amplitude * np.sin(2 * np.pi * 100.0 * t)
        args = (t, v, 500.0, 1.35)
        lines.append(
            f"{amplitude:.3f},"
            f"{IdealRectifier().rectify(*args).power_out:.6g},"
            f"{DiodeBridgeRectifier().rectify(*args).power_out:.6g},"
            f"{SynchronousRectifier().rectify(*args).power_out:.6g}"
        )
    path = os.path.join(OUT_DIR, "rectifier_comparison.csv")
    write_csv(path, "\n".join(lines) + "\n")
    return path


def export_link() -> str:
    link = RadioLink(PatchAntenna())
    lines = ["distance_m,received_dbm,margin_db"]
    for k in range(40):
        d = 0.1 * 1.2**k
        if d > 12.0:
            break
        budget = link.budget(d)
        lines.append(f"{d:.4g},{budget.received_dbm:.4g},{budget.margin_db:.4g}")
    path = os.path.join(OUT_DIR, "link_budget.csv")
    write_csv(path, "\n".join(lines) + "\n")
    return path


def export_battery_week() -> str:
    deployment = build_tpms_deployment(harvest_update_s=600.0)
    node = deployment.node
    lines = ["hour,soc,speed_kmh"]
    for hour in range(7 * 24):
        node.run(HOUR)
        lines.append(
            f"{hour + 1},{node.battery.soc:.6f},"
            f"{deployment.cycle.speed_at(node.engine.now):.1f}"
        )
    path = os.path.join(OUT_DIR, "battery_week.csv")
    write_csv(path, "\n".join(lines) + "\n")
    return path


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    for exporter in (export_fig6, export_sc_efficiency, export_rectifiers,
                     export_link, export_battery_week):
        path = exporter()
        rows = sum(1 for _ in open(path)) - 1
        print(f"wrote {path} ({rows} rows)")


if __name__ == "__main__":
    main()
