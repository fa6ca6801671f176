"""Power-profile extraction: regenerating Fig 6.

Figure 6 of the paper is an oscilloscope shot of the node's total power
during one "on" cycle: the wake spike, the sensor plateau, the radio
burst, and the return to the microwatt sleep floor, all inside ~14 ms.
:func:`capture_cycle_profile` extracts exactly that window from a node's
recorder; :func:`render_ascii` prints it as the bench's text plot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..errors import SimulationError
from ..units import left_sum, milli
from .node import PicoCube


@dataclasses.dataclass(frozen=True)
class CycleProfile:
    """One on-cycle's power profile."""

    t_start: float
    rows: List[Tuple[float, Dict[str, float]]]
    cycle_duration: float
    peak_power_w: float
    sleep_power_w: float
    cycle_energy_j: float

    def phases(self) -> List[Tuple[float, float]]:
        """(relative time, total watts) pairs of the step profile."""
        return [
            (t - self.t_start, left_sum(powers.values())) for t, powers in self.rows
        ]


def capture_cycle_profile(
    node: PicoCube,
    cycle_index: int = 0,
    pre_s: float = milli(1.0),
    post_s: float = 18e-3,
) -> CycleProfile:
    """Extract the power profile around one completed cycle."""
    if not node.cycle_start_times:
        raise SimulationError("node has not run any cycles yet")
    if not 0 <= cycle_index < len(node.cycle_start_times):
        raise SimulationError(
            f"cycle index {cycle_index} outside 0.."
            f"{len(node.cycle_start_times) - 1}"
        )
    t0 = node.cycle_start_times[cycle_index]
    window_start = max(t0 - pre_s, 0.0)
    window_end = min(t0 + post_s, node.engine.now)
    rows = node.recorder.profile(window_start, window_end)
    totals = [(t, left_sum(p.values())) for t, p in rows]
    sleep_power = totals[0][1]
    peak = max(power for _, power in totals)
    # Cycle duration: from t0 to the last return to the sleep floor.
    duration = 0.0
    for t, power in totals:
        if t > t0 and abs(power - sleep_power) / max(sleep_power, 1e-12) < 0.05:
            duration = t - t0
            break
    else:
        duration = window_end - t0
    total_trace = node.recorder.total_trace()
    energy = total_trace.integral(t0, t0 + duration) - sleep_power * duration
    return CycleProfile(
        t_start=t0,
        rows=rows,
        cycle_duration=duration,
        peak_power_w=peak,
        sleep_power_w=sleep_power,
        cycle_energy_j=max(energy, 0.0),
    )


def render_ascii(profile: CycleProfile, width: int = 64) -> str:
    """Render the profile as a log-scaled ASCII bar chart (the Fig 6 look)."""
    import math

    lines = [
        f"on-cycle profile @ t={profile.t_start:.3f} s  "
        f"(duration {profile.cycle_duration * 1e3:.1f} ms, "
        f"peak {profile.peak_power_w * 1e3:.2f} mW, "
        f"sleep {profile.sleep_power_w * 1e6:.2f} uW, "
        f"energy {profile.cycle_energy_j * 1e6:.1f} uJ)",
    ]
    floor = max(profile.sleep_power_w, 1e-9)
    span = math.log10(max(profile.peak_power_w / floor, 10.0))
    for rel_t, watts in profile.phases():
        ratio = math.log10(max(watts / floor, 1.0)) / span
        bar = "#" * max(int(ratio * width), 1 if watts > 0 else 0)
        lines.append(f"{rel_t * 1e3:8.3f} ms  {watts * 1e6:10.1f} uW  {bar}")
    return "\n".join(lines)
