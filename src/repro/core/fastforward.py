"""Cycle fast-forward accelerator for the PicoCube node.

The TPMS node's life is overwhelmingly repetitive: once the battery, the
tire environment, and the duty cycle settle into periodic steady state,
every macro-cycle of events is a bit-exact translated copy of the last.
This module detects that state and *replays* whole spans analytically —
trace breakpoints appended as compressed periodic blocks, battery advanced
by the verified per-span delta, bookkeeping extended by arithmetic — in
O(1) engine work per skipped cycle, instead of re-executing millions of
Python events.

Exactness contract
------------------

A leap happens only after proof, never on a hash alone:

1. the :class:`~repro.sim.fastforward.SteadyStateDetector` must see the
   node's canonical snapshot (cell charge, policy state, engine
   pending-event signature, environment state) three times, equally spaced
   in cycle count and simulation time;
2. the exact per-span deltas (battery charge, event count, packet count)
   of the two spans must agree bit-for-bit;
3. every recorder channel's two trace windows must match breakpoint-by-
   breakpoint under translation (``==`` on floats, no tolerance), and the
   per-span packet and cycle-start sequences must match likewise.

Leaps never cross a power-of-two simulation-time boundary (see
:func:`~repro.sim.fastforward.next_octave_boundary` for why), so a run is
a chain of leap / re-verify interludes whose replayed breakpoints are
bit-identical to what event-by-event execution would have produced.
``EnergyAudit`` totals and ``StepTrace`` windows therefore come out
bit-identical on drift-free scenarios — the property the equivalence tests
pin.  The only quantity outside the contract is the battery's
``overcharge_heat_joules``, which is advanced by ``K * span_delta`` (a
diagnostic accumulator; scaling changes only final-bit rounding).

Automatic fallback
------------------

Anything that makes cycles non-repeating suppresses leaping with no
configuration needed, because it breaks snapshot equality or window
verification:

* **fault windows** — a :class:`~repro.faults.injector.FaultInjector` pre-schedules
  its events at absolute times, so the engine's pending-event signature
  differs from cycle to cycle until the campaign's events have all fired;
* **brownouts** — the supervisor timer and the browned-out flag both enter
  the snapshot, and no cycle completes while the node is down anyway;
* **state drift** — a draining or recharging battery changes the charge
  snapshot, so only genuinely stationary cycles are replayed;
* **time-varying harvest** — a charger function must be declared
  ``time_invariant`` at attach; deployment drive cycles are not, so they
  run event-by-event.

A node with a ``packet_filter`` (chaos link-quality campaigns) or a motion
sensor (aperiodic wakeups) is likewise ineligible.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Optional, Tuple

from ..sim.fastforward import (
    CycleCandidate,
    SteadyStateDetector,
    extract_template,
    max_leap_count,
    next_octave_boundary,
    windows_match,
)

__all__ = ["CycleFastForward", "LeapRecord"]

#: Exact per-span counters carried with each detector sighting; deltas
#: must repeat bit-for-bit before a candidate is trusted.
_Payload = Tuple[float, float, int, int, int, int, int]


@dataclasses.dataclass(frozen=True)
class LeapRecord:
    """One executed fast-forward leap."""

    time_s: float
    span_s: float
    count: int
    cycles_replayed: int

    @property
    def skipped_s(self) -> float:
        """Simulated seconds covered by this leap."""
        return self.span_s * self.count


class CycleFastForward:
    """Steady-state leap controller owned by one :class:`PicoCube`.

    The node calls :meth:`on_cycle_complete` at the end of every sample
    cycle and :meth:`set_horizon` at the start of every ``run``; everything
    else is internal.  ``leaps``, ``cycles_replayed`` and ``time_skipped``
    expose what the accelerator did for reports and benchmarks.
    """

    #: After a failed bit-exact verification, skip re-verifying for this
    #: many cycles (hash candidates keep arriving every cycle once the
    #: spacing matches; re-proving each one would be quadratic).
    VERIFY_COOLDOWN_CYCLES = 64

    def __init__(self, node) -> None:
        self._node = node
        self._detector = SteadyStateDetector()
        self._horizon: Optional[float] = None
        self._cooldown = 0
        self.leaps: List[LeapRecord] = []
        self.cycles_replayed = 0
        self.time_skipped = 0.0
        self.verifications_failed = 0

    # ------------------------------------------------------------------ wiring

    def set_horizon(self, end_time: float) -> None:
        """Declare how far the current ``run`` will simulate.

        Leaps never overshoot the horizon, so the tail of the run is
        stepped normally and ``run_until`` semantics (events exactly at
        the end time fire) are preserved.
        """
        self._horizon = float(end_time)

    def eligible(self) -> bool:
        """Static eligibility of the node for fast-forwarding."""
        node = self._node
        if node.config.sensor_kind != "tpms":
            return False  # motion wakeups are aperiodic by construction
        if node.packet_filter is not None:
            return False  # per-packet fault injection: cycles not equal
        if node._charge_current_fn is not None and not node._charger_time_invariant:
            return False  # harvest profile depends on absolute time
        return True

    def on_cycle_complete(self) -> None:
        """Observe one completed cycle; leap if steady state is proven."""
        if self._horizon is None or not self.eligible():
            return
        node = self._node
        candidate = self._detector.observe(
            node.engine.now, self._snapshot(), self._payload()
        )
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if candidate is None:
            return
        count = max_leap_count(
            candidate.times[2], candidate.span, self._horizon
        )
        if count < 1:
            return
        if next_octave_boundary(candidate.times[0]) != next_octave_boundary(
            candidate.times[2]
        ):
            # The evidence windows straddle a power-of-two boundary: they
            # cannot verify bit-exact (the time grid changed mid-window),
            # and even if they could, the replay would land on the far
            # grid.  Keep stepping; the windows clear the boundary soon.
            return
        if not self._verify(candidate):
            self.verifications_failed += 1
            self._cooldown = self.VERIFY_COOLDOWN_CYCLES
            return
        self._leap(candidate, count)

    # ------------------------------------------------------------------ state

    def _snapshot(self) -> Hashable:
        """Canonical node state at a cycle boundary, for period hashing.

        Everything that influences future behaviour goes in; monotone
        diagnostics (heat, counters) stay out.
        """
        node = self._node
        battery = node.battery
        environment = tuple(
            sorted(
                (key, value)
                for key, value in vars(node.environment).items()
                if isinstance(value, (int, float, bool, str))
            )
        )
        return (
            battery.charge,
            battery.temperature_c,
            battery._self_discharge_multiplier,
            battery._esr_multiplier,
            node._seq,
            node._harvest_derating,
            node._i_battery,
            node.browned_out,
            node.mcu.mode,
            environment,
            node.engine.pending_signature(),
        )

    def _payload(self) -> _Payload:
        node = self._node
        return (
            node.battery.charge,
            node.battery.overcharge_heat_joules,
            node.engine.events_fired,
            len(node.packets_sent),
            len(node.packets_corrupted),
            len(node.cycle_start_times),
            node.cycles_completed,
        )

    # ------------------------------------------------------------------ proof

    def _verify(self, candidate: CycleCandidate) -> bool:
        """Prove the candidate period is bit-exact, not merely hash-equal."""
        node = self._node
        p0, p1, p2 = candidate.payloads
        charge_delta = p2[0] - p1[0]
        if charge_delta != p1[0] - p0[0]:
            return False
        # Counter deltas (events fired, packets, corrupted, starts,
        # cycles) must repeat exactly.
        for field in (2, 3, 4, 5, 6):
            if p2[field] - p1[field] != p1[field] - p0[field]:
                return False
        if p2[4] - p1[4] != 0:
            return False  # corrupted packets: never while eligible
        cycles = p2[6] - p1[6]
        if cycles != candidate.cycles_per_span or cycles < 1:
            return False
        if p2[5] - p1[5] != cycles:
            return False  # cycle starts must be one per cycle
        t0, t1, _ = candidate.times
        span = candidate.span
        for name in node.recorder.channel_names():
            if not windows_match(node.recorder.channel(name), t0, t1, span):
                return False
        packets = p2[3] - p1[3]
        if packets > 0:
            sent = node.packets_sent
            if sent[-packets:] != sent[-2 * packets:-packets]:
                return False
        starts = node.cycle_start_times
        recent = starts[-cycles:]
        earlier = starts[-2 * cycles:-cycles]
        if any(s - span != e for s, e in zip(recent, earlier)):
            return False
        return True

    # ------------------------------------------------------------------ leap

    def _leap(self, candidate: CycleCandidate, count: int) -> None:
        """Replay ``count`` spans analytically and jump the clock."""
        node = self._node
        engine = node.engine
        span = candidate.span
        _, t1, t2 = candidate.times
        _, p1, p2 = candidate.payloads
        cycles = candidate.cycles_per_span
        templates = {
            name: extract_template(node.recorder.channel(name), t1, t2)
            for name in node.recorder.channel_names()
        }
        engine.warp(count * span)
        for name, (rel_times, values) in templates.items():
            node.recorder.channel(name).append_periodic(
                t2, rel_times, values, span, count
            )
        charge_delta = p2[0] - p1[0]
        if charge_delta > 0.0:
            node.battery.charge_by(count * charge_delta)
        elif charge_delta < 0.0:
            node.battery.discharge(count * -charge_delta)
        node.battery.overcharge_heat_joules += count * (p2[1] - p1[1])
        engine.account_replayed_events(count * (p2[2] - p1[2]))
        # The node's lazy integrators must look as if they last ran at the
        # translated times they would have run at.
        node._last_battery_sync += count * span
        node._last_env_update += count * span
        packets = p2[3] - p1[3]
        if packets > 0:
            node.packets_sent.extend(node.packets_sent[-packets:] * count)
        window_starts = node.cycle_start_times[-cycles:]
        extend = node.cycle_start_times.extend
        for k in range(1, count + 1):
            offset = k * span
            extend(s + offset for s in window_starts)
        node.cycles_completed += cycles * count
        node._seq = (node._seq + cycles * count) & 0xFF
        self.leaps.append(
            LeapRecord(
                time_s=t2, span_s=span, count=count,
                cycles_replayed=cycles * count,
            )
        )
        self.cycles_replayed += cycles * count
        self.time_skipped += count * span
        # Everything the detector saw is now stale (absolute times moved);
        # re-verify from scratch before the next leap.
        self._detector.reset()
