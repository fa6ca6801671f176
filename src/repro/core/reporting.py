"""Markdown run reports.

Turns a completed node run into a self-contained markdown document — the
artifact a deployment engineer would attach to a design review: headline
numbers, channel breakdown, cycle statistics, battery trajectory, and the
comparison against the paper's published figures.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import SimulationError
from ..units import DAY, HOUR, left_sum, micro, milli
from .energy_audit import audit_node, format_lifetime, projected_lifetime_s
from .node import PicoCube

PAPER_AVERAGE_W = micro(6.0)
PAPER_CYCLE_S = milli(14.0)


def _fmt_duration(seconds: float) -> str:
    if seconds >= DAY:
        return f"{seconds / DAY:.1f} days"
    if seconds >= HOUR:
        return f"{seconds / HOUR:.1f} h"
    return f"{seconds:.0f} s"


def run_report(node: PicoCube, title: Optional[str] = None) -> str:
    """Render a completed run as markdown."""
    if node.engine.now <= 0.0:
        raise SimulationError("node has not run yet")
    audit = audit_node(node)
    lines: List[str] = []
    lines.append(f"# {title or 'PicoCube run report'}")
    lines.append("")
    lines.append(f"- configuration: `{node.config.power_train}` power train, "
                 f"`{node.config.sensor_kind}` sensor, "
                 f"`{node.config.fidelity}` fidelity")
    lines.append(f"- simulated span: {_fmt_duration(audit.duration_s)}")
    lines.append("")

    lines.append("## Headline")
    lines.append("")
    ratio = audit.average_power_w / PAPER_AVERAGE_W
    lines.append(f"| metric | this run | paper |")
    lines.append(f"|---|---|---|")
    lines.append(
        f"| average power | {audit.average_power_w * 1e6:.2f} µW "
        f"({ratio:.2f}× paper) | 6 µW |"
    )
    lines.append(
        f"| energy per cycle | {audit.energy_per_cycle_j * 1e6:.2f} µJ | — |"
    )
    lines.append(
        f"| cycles completed | {audit.cycles} | every 6 s |"
    )
    lines.append(
        f"| dominant consumer | {audit.dominant_channel()} "
        f"({audit.management_fraction:.0%} management) | power management |"
    )
    lines.append("")

    lines.append("## Channel breakdown")
    lines.append("")
    lines.append("| channel | energy | share |")
    lines.append("|---|---|---|")
    total = left_sum(audit.energy_by_channel_j.values())
    for name, energy in audit.energy_by_channel_j.items():
        share = energy / total if total > 0 else 0.0
        lines.append(f"| {name} | {energy * 1e3:.3f} mJ | {share:.1%} |")
    lines.append("")

    lines.append("## Battery")
    lines.append("")
    lines.append(f"- state of charge: {node.battery.soc:.3f}")
    lines.append(
        f"- open-circuit voltage: {node.battery.open_circuit_voltage():.3f} V"
    )
    if node.browned_out:
        lines.append(
            f"- **BROWNED OUT** at t = {_fmt_duration(node.brownout_time)}"
        )
    else:
        lines.append(
            "- battery-only lifetime at this draw: "
            f"{format_lifetime(projected_lifetime_s(node))}"
        )
    lines.append("")

    lines.append("## Telemetry")
    lines.append("")
    lines.append(f"- packets transmitted: {len(node.packets_sent)}")
    if node.packets_sent:
        last = node.packets_sent[-1]
        lines.append(f"- last packet: node {last.node_id}, seq {last.seq}, "
                     f"kind {last.kind:#04x}, {last.bit_count} bits")
    lines.append("")
    return "\n".join(lines)
