"""Energy audit: the bench numbers the paper reports, from a node run.

Turns a :class:`~repro.core.node.PicoCube`'s recorder into the quantities
of §6: average power, the per-subsystem breakdown (with the
power-management share the paper highlights), per-cycle energy, projected
battery lifetime without harvesting, and the energy-neutrality verdict
with a harvester attached.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import SimulationError
from ..units import DAY, YEAR
from .node import PicoCube


@dataclasses.dataclass(frozen=True)
class EnergyAudit:
    """Summary of a completed node run."""

    duration_s: float
    average_power_w: float
    energy_by_channel_j: Dict[str, float]
    cycles: int
    energy_per_cycle_j: float
    management_fraction: float
    brownouts: int = 0
    outage_s: float = 0.0
    resets: int = 0

    @property
    def availability(self) -> float:
        """Fraction of the window the node was powered (1.0 = no outage)."""
        if self.duration_s <= 0.0:
            return 0.0
        return 1.0 - self.outage_s / self.duration_s

    def dominant_channel(self) -> str:
        """The largest energy consumer."""
        return max(self.energy_by_channel_j, key=self.energy_by_channel_j.get)

    def format_table(self) -> str:
        """A printable audit table (the bench output)."""
        lines = [
            f"duration           {self.duration_s:.1f} s",
            f"average power      {self.average_power_w * 1e6:.2f} uW",
            f"cycles completed   {self.cycles}",
            f"energy per cycle   {self.energy_per_cycle_j * 1e6:.2f} uJ",
        ]
        if self.brownouts or self.resets:
            lines.append(
                f"brownouts          {self.brownouts} "
                f"({self.outage_s:.1f} s down, "
                f"availability {self.availability:.1%})"
            )
            lines.append(f"spurious resets    {self.resets}")
        lines.append("channel breakdown:")
        total = sum(self.energy_by_channel_j.values())
        for name, energy in self.energy_by_channel_j.items():
            share = energy / total if total > 0 else 0.0
            lines.append(f"  {name:<18} {energy * 1e3:9.3f} mJ  {share:6.1%}")
        return "\n".join(lines)


def audit_node(node: PicoCube, start: Optional[float] = None,
               end: Optional[float] = None) -> EnergyAudit:
    """Build an :class:`EnergyAudit` from a node's recorder."""
    if end is None:
        end = node.engine.now
    if start is None:
        start = 0.0
    if end <= start:
        raise SimulationError(f"audit window [{start}, {end}] is empty")
    duration = end - start
    breakdown = node.recorder.energy_breakdown(start, end)
    total = sum(breakdown.values())
    cycles = node.cycles_completed
    sleep_power = _sleep_floor(node)
    per_cycle = 0.0
    if cycles > 0:
        # Cycle energy is what a cycle adds above the always-on floor.
        per_cycle = max((total - sleep_power * duration) / cycles, 0.0)
    management = breakdown.get("power-management", 0.0)
    outages = [
        event for event in node.brownout_events
        if event.start_s < end and (event.end_s is None or event.end_s > start)
    ]
    return EnergyAudit(
        duration_s=duration,
        average_power_w=total / duration,
        energy_by_channel_j=breakdown,
        cycles=cycles,
        energy_per_cycle_j=per_cycle,
        management_fraction=management / total if total > 0 else 0.0,
        brownouts=len(outages),
        outage_s=sum(event.overlap_s(start, end) for event in outages),
        resets=node.resets,
    )


def _sleep_floor(node: PicoCube) -> float:
    """Estimate the always-on power floor from the quietest instant."""
    total_trace = node.recorder.total_trace()
    return total_trace.minimum(total_trace.start_time, node.engine.now)


def projected_lifetime_s(node: PicoCube) -> float:
    """How long the battery alone would last at the measured average power.

    The paper's motivation made quantitative: even at only ~6 uW, the
    15 mAh cell holds months, not the decades a building deployment needs
    (and NiMH self-discharge makes battery-only reality far worse) —
    harvesting, not a bigger battery, is the answer.
    """
    power = node.average_power()
    if power <= 0.0:
        raise SimulationError("no measured power to project from")
    energy = node.battery.stored_energy()
    return energy / power


def format_lifetime(seconds: float) -> str:
    """Human-readable lifetime."""
    if seconds >= YEAR:
        return f"{seconds / YEAR:.1f} years"
    return f"{seconds / DAY:.1f} days"
