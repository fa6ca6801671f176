"""The discrete-event simulation engine.

The PicoCube spends 99.8 % of its life in deep sleep punctuated by 14 ms
bursts of activity, so a fixed-timestep simulator would either crawl (ns
steps) or miss the bursts (ms steps).  A discrete-event engine with
piecewise-constant electrical state between events is both exact and fast:
power draws only change *at* events, so energy integrals between events are
just ``power * dt``.

Usage::

    engine = Engine()
    engine.schedule(6.0, wake_up, name="tpms-timer")
    engine.run_until(3600.0)

Components never poll; they schedule their next state change and return.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

from ..errors import SchedulingError, SimulationError
from .events import Event, EventHandle, PRIORITY_NORMAL

_INF = float("inf")
#: run_to_completion's end time: no finite event time exceeds it.
_LAST_TIME = sys.float_info.max


class Engine:
    """Deterministic discrete-event scheduler.

    Events scheduled for the same instant fire ordered by ``priority`` then
    by scheduling order, which makes multi-component scenarios reproducible
    run-to-run.
    """

    #: Compact the heap once it holds this many entries and more than
    #: half of them are cancelled corpses.  Keeps heap size O(live) even
    #: under cancel-heavy workloads (fault campaigns, timer churn).
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._sequence = 0
        self._running = False
        self._events_fired = 0
        # Live (scheduled, not yet fired or cancelled) event count,
        # maintained on schedule/cancel/pop so pending_count is O(1).
        self._live = 0
        # Callbacks invoked with the time offset whenever warp() shifts
        # the clock, so periodic timers can move their epochs along.
        self._warp_hooks: List[Callable[[float], None]] = []
        # The open run loop's end time, event budget and pause hook, which
        # _resume_after reads; -inf end time while no loop runs.
        self._end_time = -_INF
        self._budget: float = 0
        self._pause_hook: Optional[Callable[[], bool]] = None
        self._paused = False

    # -- inspection --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def sequence(self) -> int:
        """Next scheduling sequence number (checkpoint bookkeeping)."""
        return self._sequence

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live pending event, or None if idle."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].time

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        name: str = "",
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        A zero delay is allowed (fires later in the current instant,
        after currently-executing same-time events of lower priority).
        Negative and non-finite delays raise :class:`SchedulingError`.
        """
        if delay < 0.0:
            raise SchedulingError(
                f"cannot schedule event {name!r} {delay} s in the past"
            )
        return EventHandle(
            self._push(self._now + delay, callback, name, priority)
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        name: str = "",
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return EventHandle(self._push(time, callback, name, priority))

    def _push(
        self, time: float, callback: Callable[[], None], name: str, priority: int
    ) -> Event:
        """Create and heap-push one event; the shared scheduling core.

        A process resume that must wait for the heap comes here through
        :meth:`_resume_after`: it is never cancelled, so it skips the
        :class:`EventHandle`.
        """
        # One chained test rejects the past, NaN and +inf alike.
        if not self._now <= time < _INF:
            raise SchedulingError(
                f"cannot schedule event {name!r} at t={time} (now is "
                f"{self._now}; times must be finite and not in the past)"
            )
        event = Event(
            float(time), priority, self._sequence, callback, name,
            self._note_cancelled,
        )
        self._sequence += 1
        self._live += 1
        heap = self._heap
        heappush(heap, event)
        if len(heap) >= self.COMPACT_MIN_SIZE and self._live * 2 < len(heap):
            self._compact()
        return event

    def _resume_after(
        self, delay: float, resume: Callable[[], None], name: str
    ) -> bool:
        """Resume a process ``delay`` seconds from now; True to go on inline.

        When the resume is the very next event the open run loop would
        fire, it fires in place: the clock moves to it and it is credited
        to ``events_fired``, ``sequence`` and the ``max_events`` budget
        exactly as a heap push and pop would, and the caller runs the
        generator on in the same callback.  That holds when its time is
        within the run's end time, no live pending event is due at or
        before it (ties keep the heap's priority order), the budget has
        room, and the pause hook, consulted for the event that just fired,
        lets the run go on.  Otherwise the resume is heap-pushed.
        """
        time = self._now + delay
        if time <= self._end_time and self._budget > 0:
            self._drop_cancelled_head()
            heap = self._heap
            if not heap or heap[0].time > time:
                hook = self._pause_hook
                if hook is None or not hook():
                    self._now = time
                    self._sequence += 1
                    self._events_fired += 1
                    self._budget -= 1
                    return True
                self._paused = True
        self._push(time, resume, name, PRIORITY_NORMAL)
        return False

    # -- time warp (cycle fast-forward support) ----------------------------

    def register_warp_hook(self, hook: Callable[[float], None]) -> Callable[[], None]:
        """Register ``hook(offset)`` to run whenever :meth:`warp` fires.

        Periodic timers use this to shift their tick epochs so the
        drift-free ``epoch + k * period`` arithmetic stays consistent
        after a jump.  Returns an unregister function.
        """
        self._warp_hooks.append(hook)

        def unregister() -> None:
            try:
                self._warp_hooks.remove(hook)
            except ValueError:
                pass

        return unregister

    def warp(self, offset: float) -> None:
        """Jump the clock forward by ``offset`` seconds.

        Every pending event (live or cancelled) moves with the clock: the
        whole schedule is translated rigidly, which preserves heap order,
        relative timing, and same-instant priorities exactly.  This is
        the primitive the cycle fast-forward accelerator uses to skip
        verified-repeating wake cycles; it never fires callbacks.
        """
        if offset < 0.0:
            raise SchedulingError(f"cannot warp backwards by {offset} s")
        if offset == 0.0:
            return
        self._now += offset
        for event in self._heap:
            event.time += offset
        for hook in self._warp_hooks:
            hook(offset)

    def account_replayed_events(self, count: int) -> None:
        """Credit ``count`` events to the fired counter without running them.

        Fast-forwarded cycles are replayed analytically rather than
        executed; crediting keeps ``events_fired`` meaningful as "events
        the simulation represents" in reports and benchmarks.
        """
        if count < 0:
            raise SimulationError("replayed event count must be >= 0")
        self._events_fired += count

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Fire the earliest pending event.

        Returns False (without advancing time) when the queue is empty.
        """
        heap = self._heap
        while True:
            if not heap:
                return False
            event = heappop(heap)
            # Cancelled events left the live count at cancel time; their
            # heap corpses are shed here.
            if not event.cancelled:
                break
        if event.time < self._now:
            raise SimulationError(
                f"event {event.name!r} at t={event.time} is before now={self._now}"
            )
        self._now = event.time
        self._events_fired += 1
        self._live -= 1
        # Mark fired before the callback runs so a callback cancelling its
        # own handle cannot double-decrement the live counter.
        event.fired = True
        event.callback()
        return True

    def run_until(
        self,
        end_time: float,
        max_events: Optional[int] = None,
        pause_hook: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Run events in order until simulation time reaches ``end_time``.

        Events scheduled exactly at ``end_time`` *do* fire (closed
        interval), so ``run_until(3600)`` includes a sample cycle whose
        timer lands exactly on the hour.  Afterwards ``now`` equals
        ``end_time`` even if the queue drained early, which lets callers
        integrate quiescent power across idle tails.

        ``max_events`` guards against runaway zero-delay loops: exactly
        ``max_events`` callbacks fire, and :class:`SimulationError` is
        raised only if another event remains due within the window.

        ``pause_hook``, when given, is consulted after every fired event;
        returning True pauses the run *at the current event time* (the
        clock is NOT advanced to ``end_time``) and ``run_until`` returns
        False.  Pausing only observes — the event stream up to the pause
        is exactly the stream an unpaused run would have fired, which is
        what makes checkpoints (:mod:`repro.sim.checkpoint`)
        bit-identical.  Returns True when ``end_time`` was reached.
        """
        if end_time < self._now:
            raise SchedulingError(
                f"cannot run backwards to t={end_time} (now is {self._now})"
            )
        if not end_time < _INF:
            # NaN or +inf: no event time exceeds it, so a periodic timer
            # would keep the loop running forever.
            raise SchedulingError(
                f"cannot run to t={end_time}: the end time must be finite"
            )
        if not self._run(end_time, max_events, pause_hook):
            return False
        self._now = float(end_time)
        return True

    def run_to_completion(self, max_events: int = 1_000_000) -> None:
        """Run until the event queue is empty.

        Same ``max_events`` semantics as :meth:`run_until`: exactly
        ``max_events`` callbacks fire before the guard trips.
        """
        self._run(_LAST_TIME, max_events, None)

    def _run(
        self,
        end_time: float,
        max_events: Optional[int],
        pause_hook: Optional[Callable[[], bool]],
    ) -> bool:
        """The run loop of both entry points; False when the hook paused it.

        Every heap event fires through :meth:`step`.  A process resume
        that is already the next event fires inside the callback before
        it (:meth:`_resume_after`), so the loop keeps its end time,
        budget and pause hook on the engine.
        """
        if self._running:
            raise SimulationError("the engine is already running an event loop")
        self._running = True
        self._end_time = end_time
        self._budget = _INF if max_events is None else max_events
        self._pause_hook = pause_hook
        self._paused = False
        try:
            while True:
                self._drop_cancelled_head()
                if not self._heap or self._heap[0].time > end_time:
                    return True
                if self._budget <= 0:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now}; "
                        "likely a zero-delay event loop"
                    )
                self._budget -= 1
                self.step()
                if self._paused or (pause_hook is not None and pause_hook()):
                    return False
        finally:
            self._running = False
            self._end_time = -_INF
            self._pause_hook = None

    def pending_signature(self) -> tuple:
        """Canonical snapshot of the pending schedule, relative to now.

        A tuple of ``(time - now, priority, name)`` triples for every
        live event, in firing order.  Two engine states with equal
        signatures have the same future schedule up to a rigid time
        translation — the property the steady-state detector hashes.
        """
        live = sorted(e for e in self._heap if not e.cancelled)
        return tuple((e.time - self._now, e.priority, e.name) for e in live)

    def pending_events(self) -> tuple:
        """Absolute descriptors of every live event, in scheduling order.

        A tuple of ``(sequence, time, priority, name)`` sorted by the
        original scheduling sequence.  This is the checkpoint layer's
        view of the queue: restore re-creates the pending events one by
        one in this order, which reproduces the engine's same-instant
        tie-breaking (time, then priority, then scheduling order)
        exactly.
        """
        live = sorted(
            (e for e in self._heap if not e.cancelled),
            key=lambda e: e.sequence,
        )
        return tuple((e.sequence, e.time, e.priority, e.name) for e in live)

    def reset_for_restore(
        self, now: float, sequence: int, events_fired: int
    ) -> None:
        """Rewind a freshly built engine to a checkpointed clock state.

        Drops every pending event (restore re-creates them through their
        owners, in the checkpoint's scheduling order) and force-sets the
        clock, the scheduling sequence, and the fired-event counter.
        Only :mod:`repro.sim.checkpoint` should call this; on a live
        engine it would strand component callbacks.
        """
        if self._running:
            raise SimulationError("cannot restore into a running engine")
        if now < 0.0 or sequence < 0 or events_fired < 0:
            raise SimulationError("checkpointed engine state is negative")
        self._heap.clear()
        self._live = 0
        self._now = float(now)
        self._sequence = int(sequence)
        self._events_fired = int(events_fired)

    # -- internals ---------------------------------------------------------

    def _compact(self) -> None:
        """Shed cancelled corpses so heap size stays O(live events)."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapify(self._heap)

    def _note_cancelled(self) -> None:
        self._live -= 1

    def _drop_cancelled_head(self) -> None:
        # Cancelled events were already removed from the live count at
        # cancel time; this only sheds the dead heap entries.
        while self._heap and self._heap[0].cancelled:
            heappop(self._heap)
