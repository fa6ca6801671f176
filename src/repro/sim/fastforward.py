"""Steady-state detection primitives for cycle fast-forwarding.

A duty-cycled node that has reached periodic steady state re-executes the
same wake cycle over and over: every event, every trace breakpoint, every
packet repeats with the cycle period, merely translated in time.  Replaying
those cycles event-by-event is the dominant cost of long-horizon runs —
a simulated year of the 6 s TPMS duty cycle is ~21 million Python events
of which all but a few thousand are copies.

This module holds the *generic* half of the accelerator: detecting that a
snapshot stream has become periodic, proving two windows of a
:class:`~repro.sim.trace.StepTrace` are bit-identical up to translation,
and computing how far a leap may reach.  The node-specific half (what goes
in a snapshot, how to replay bookkeeping) lives in
:mod:`repro.core.fastforward`.

Exactness and the octave cap
----------------------------

The contract is *bit-identity*: a fast-forwarded run must produce the same
trace breakpoints, the same integrals, and the same audit totals as the
event-by-event run, to the last bit.  Floating-point makes that subtle:
an event at absolute time ``W + rel`` rounds differently depending on the
binary exponent of ``W``.  Within one *octave* — a power-of-two interval
``[2**m, 2**(m+1))`` — the absolute times of a cycle anchored at exact
integer boundaries translate exactly, so repetition verified inside an
octave stays bit-exact inside that octave, but not across its end.

The accelerator therefore never leaps across a power-of-two time boundary:
it leaps to just before the boundary, resumes event-by-event execution,
re-verifies steady state on the far side, and leaps again.  Octaves double
in length, so a year-scale run pays only ~``log2(horizon)`` verification
interludes.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from .trace import StepTrace

__all__ = [
    "CycleCandidate",
    "SteadyStateDetector",
    "extract_template",
    "windows_match",
    "next_octave_boundary",
    "max_leap_count",
]


class CycleCandidate:
    """Evidence that the simulation may have entered periodic steady state.

    Three sightings of the same snapshot, equally spaced in both cycle
    index and simulation time.  ``payloads`` carries caller-supplied exact
    state (battery charge, counters) from each sighting so the caller can
    check per-span deltas before trusting the candidate.
    """

    __slots__ = ("span", "cycles_per_span", "times", "payloads")

    def __init__(
        self,
        span: float,
        cycles_per_span: int,
        times: Tuple[float, float, float],
        payloads: Tuple[object, object, object],
    ) -> None:
        self.span = span
        self.cycles_per_span = cycles_per_span
        self.times = times  # (t0, t1, t2), oldest first; span = t2 - t1
        self.payloads = payloads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CycleCandidate(span={self.span}, "
            f"cycles={self.cycles_per_span}, at={self.times[2]})"
        )


class _Sighting:
    __slots__ = ("index", "time", "payload", "prev_index", "prev_time",
                 "prev_payload", "count")

    def __init__(self, index: int, time: float, payload: object) -> None:
        self.index = index
        self.time = time
        self.payload = payload
        self.prev_index: Optional[int] = None
        self.prev_time = 0.0
        self.prev_payload: object = None
        self.count = 1


class SteadyStateDetector:
    """Finds the period of a repeating snapshot stream.

    Feed it one canonical state snapshot per cycle completion via
    :meth:`observe`.  When some snapshot has been seen three times with
    equal spacing in both cycle count and simulation time, the observation
    returns a :class:`CycleCandidate`; until then it returns ``None``.

    Snapshots are compared by equality, not by hash value, so a hash
    collision can cost a wasted verification but never a wrong leap.
    The memory bound is ``max_snapshots`` distinct states; a stream that
    never repeats (heavy fault churn) periodically clears the table and
    keeps looking.
    """

    def __init__(self, max_snapshots: int = 16384) -> None:
        if max_snapshots < 2:
            raise ValueError("max_snapshots must be at least 2")
        self.max_snapshots = max_snapshots
        self._seen: Dict[Hashable, _Sighting] = {}
        self._index = 0
        self.resets = 0

    @property
    def observations(self) -> int:
        """Snapshots observed since the last reset."""
        return self._index

    def reset(self) -> None:
        """Forget all history (after a leap or a detected drift)."""
        self._seen.clear()
        self._index = 0
        self.resets += 1

    def observe(
        self, time: float, snapshot: Hashable, payload: object = None
    ) -> Optional[CycleCandidate]:
        """Record one boundary snapshot; maybe return a period candidate."""
        index = self._index
        self._index += 1
        sighting = self._seen.get(snapshot)
        if sighting is None:
            if len(self._seen) >= self.max_snapshots:
                # Table full without periodicity: drop history, keep going.
                self.reset()
                self._index = 1
            self._seen[snapshot] = _Sighting(index, time, payload)
            return None
        candidate: Optional[CycleCandidate] = None
        if (
            sighting.prev_index is not None
            and index - sighting.index == sighting.index - sighting.prev_index
            and time - sighting.time == sighting.time - sighting.prev_time
            and time > sighting.time
        ):
            candidate = CycleCandidate(
                span=time - sighting.time,
                cycles_per_span=index - sighting.index,
                times=(sighting.prev_time, sighting.time, time),
                payloads=(sighting.prev_payload, sighting.payload, payload),
            )
        sighting.prev_index = sighting.index
        sighting.prev_time = sighting.time
        sighting.prev_payload = sighting.payload
        sighting.index = index
        sighting.time = time
        sighting.payload = payload
        sighting.count += 1
        return candidate


def extract_template(
    trace: StepTrace, start: float, end: float
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Breakpoints of ``trace`` in ``(start, end]`` as (rel_times, values).

    Relative times are ``t - start``; this is the cycle template the
    accelerator replays via :meth:`StepTrace.append_periodic`.
    """
    return trace.window(start, end)


def windows_match(trace: StepTrace, start_a: float, start_b: float,
                  span: float) -> bool:
    """True when two windows of ``trace`` are bit-identical up to translation.

    Compares the windows ``(start_a, start_a + span]`` and
    ``(start_b, start_b + span]``: the entry values must be equal and every
    breakpoint must match in relative time and value *exactly* (``==`` on
    floats, no tolerance).  This is the proof obligation before a leap —
    hashes nominate a period, this verifies it.
    """
    if trace.value_at(start_a) != trace.value_at(start_b):
        return False
    return trace.window(start_a, start_a + span) == trace.window(
        start_b, start_b + span
    )


def next_octave_boundary(time: float) -> float:
    """The smallest power of two strictly greater than ``time``.

    Times in ``[boundary/2, boundary)`` share a binary exponent, so cycle
    translations inside that half-open octave are exact; the accelerator
    must stop leaping at the boundary and re-verify beyond it.
    """
    if time <= 0.0:
        return 1.0
    _, exponent = math.frexp(time)  # time = frac * 2**exponent, frac in [0.5, 1)
    return math.ldexp(1.0, exponent)


def max_leap_count(now: float, span: float, horizon: float) -> int:
    """How many whole spans can be replayed from ``now`` without leaving
    the current octave or overshooting ``horizon``."""
    if span <= 0.0:
        return 0
    cap = min(next_octave_boundary(now), horizon)
    if cap <= now:
        return 0
    count = int((cap - now) // span)
    while count > 0 and now + count * span > cap:
        count -= 1
    return count
