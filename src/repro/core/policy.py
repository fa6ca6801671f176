"""Energy-aware duty-cycling policy (extension beyond the paper).

The SP12's six-second interrupt is hardwired (paper §4.5), which is fine
when the tire is rolling daily.  But the paper's broader vision — decades
of unattended operation in buildings on weak, intermittent sources —
wants a node that *throttles* when the buffer runs down and recovers when
energy returns.  The paper's own §7.1 IC makes this natural: its feedback
circuitry already watches the rails.

:class:`AdaptiveScheduler` implements the classic state-of-charge
hysteresis ladder: each rung maps a SoC band to a wake period, and the
node moves down the ladder as the battery drains.  The E26 benchmark
shows the payoff: on a marginal harvest the fixed 6 s node browns out
while the adaptive node rides through at reduced rate and recovers.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.clock import PeriodicTimer
from .node import PicoCube


@dataclasses.dataclass(frozen=True)
class PolicyRung:
    """One rung of the throttle ladder: at or above ``soc``, use ``period``."""

    soc: float
    period_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc <= 1.0:
            raise ConfigurationError(f"soc {self.soc} outside [0, 1]")
        if self.period_s <= 0.0:
            raise ConfigurationError("period must be positive")


DEFAULT_LADDER: Tuple[PolicyRung, ...] = (
    PolicyRung(soc=0.40, period_s=6.0),    # healthy: the paper's rate
    PolicyRung(soc=0.25, period_s=30.0),   # conserving
    PolicyRung(soc=0.10, period_s=120.0),  # survival
    PolicyRung(soc=0.00, period_s=600.0),  # last gasp
)


class AdaptiveScheduler:
    """Adjusts a node's wake period from its battery state of charge.

    Attach after construction, before (or after) ``start()``; a periodic
    supervision task re-evaluates the ladder.  Hysteresis: the node only
    speeds back up once SoC clears the rung threshold by ``hysteresis``.
    """

    def __init__(
        self,
        node: PicoCube,
        ladder: Sequence[PolicyRung] = DEFAULT_LADDER,
        supervision_period_s: float = 60.0,
        hysteresis: float = 0.03,
    ) -> None:
        rungs = sorted(ladder, key=lambda r: -r.soc)
        if not rungs:
            raise ConfigurationError("ladder needs at least one rung")
        if rungs[-1].soc != 0.0:
            raise ConfigurationError("ladder must end with a soc=0 rung")
        periods = [r.period_s for r in rungs]
        if periods != sorted(periods):
            raise ConfigurationError("periods must grow as soc falls")
        if node.config.sensor_kind != "tpms":
            raise ConfigurationError(
                "adaptive scheduling drives the timer-based (tpms) node"
            )
        if supervision_period_s <= 0.0 or hysteresis < 0.0:
            raise ConfigurationError("invalid supervision parameters")
        self.node = node
        self.ladder: List[PolicyRung] = rungs
        self.hysteresis = hysteresis
        self.current_rung_index = 0
        self.throttle_events = 0
        self.recover_events = 0
        self._supervisor = PeriodicTimer(
            node.engine, supervision_period_s, self._supervise,
            name="adaptive-policy",
        )
        self._supervisor.start()

    # -- ladder evaluation --------------------------------------------------

    def _target_rung(self, soc: float) -> int:
        for index, rung in enumerate(self.ladder):
            if soc >= rung.soc:
                return index
        return len(self.ladder) - 1

    def _supervise(self) -> None:
        if self.node.browned_out:
            self._supervisor.stop()
            return
        soc = self.node.battery.soc
        target = self._target_rung(soc)
        current = self.current_rung_index
        if target > current:
            self._move_to(target)
            self.throttle_events += 1
        elif target < current:
            # Recover only with hysteresis margin above the rung threshold.
            if soc >= self.ladder[target].soc + self.hysteresis:
                self._move_to(target)
                self.recover_events += 1

    def _move_to(self, rung_index: int) -> None:
        self.current_rung_index = rung_index
        period = self.ladder[rung_index].period_s
        self.node.sensor.wake_period_s = period
        timer = self.node._wake_timer
        if timer is not None:
            timer.stop()
            timer.period = period
            timer.start()

    @property
    def current_period_s(self) -> float:
        """The wake period presently in force."""
        return self.ladder[self.current_rung_index].period_s

    @property
    def throttled(self) -> bool:
        """True while below the top (full-rate) rung."""
        return self.current_rung_index > 0
