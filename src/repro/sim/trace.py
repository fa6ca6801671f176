"""Piecewise-constant signal traces with exact integration.

Electrical quantities in this simulator (rail power, battery current,
harvester output) only change at discrete events, so they are exactly
representable as step functions.  :class:`StepTrace` records the breakpoints
and supports exact time integrals — the 6 µW average-power headline number
comes out of ``trace.integral() / trace.duration()`` with no quadrature
error.

Two representations coexist inside a trace:

* **plain breakpoints** — parallel ``times``/``values`` lists, one entry per
  recorded change (the only representation most traces ever use);
* **periodic blocks** — a compressed run of ``count`` repetitions of a
  cycle template, appended by the fast-forward accelerator when the
  simulation has proven the cycle repeats bit-identically
  (see :mod:`repro.sim.fastforward`).  A year of six-second wake cycles
  stores one template instead of twenty million breakpoints.

Integrals are computed with :func:`math.fsum`, which returns the correctly
rounded sum of the segment products regardless of how the segments are
grouped — so a compressed trace integrates to the *bit-identical* value its
fully materialized equivalent would.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimulationError


class _PeriodicBlock:
    """``count`` repetitions of a cycle template, stored once.

    The materialized breakpoints are ``t0 + k * span + rel`` for ``k`` in
    ``range(count)`` and each template entry ``(rel, value)``; template
    times lie in ``(0, span]``.  An empty template is legal and means the
    signal did not change during the compressed span.
    """

    __slots__ = ("t0", "span", "count", "times", "values", "anchor")

    def __init__(
        self,
        t0: float,
        span: float,
        count: int,
        times: Tuple[float, ...],
        values: Tuple[float, ...],
        anchor: int,
    ) -> None:
        self.t0 = t0
        self.span = span
        self.count = count
        self.times = times
        self.values = values
        self.anchor = anchor  # len(trace._times) when the block was added

    @property
    def end(self) -> float:
        """First instant after the compressed span."""
        return self.t0 + self.span * self.count

    def final_value(self, fallback: float) -> float:
        """Signal value at the end of the span."""
        return self.values[-1] if self.values else fallback

    def value_at(self, time: float, before: float) -> float:
        """Right-continuous lookup for ``time`` inside ``[t0, end)``."""
        if not self.values:
            return before
        k = int((time - self.t0) // self.span)
        if k >= self.count:
            k = self.count - 1
        base = self.t0 + k * self.span
        if time < base and k > 0:
            k -= 1
            base = self.t0 + k * self.span
        index = bisect.bisect_right(self.times, time - base) - 1
        if index >= 0:
            return self.values[index]
        return self.values[-1] if k > 0 else before

    def iter_breakpoints(
        self, start: Optional[float], end: Optional[float]
    ) -> Iterator[Tuple[float, float]]:
        """Materialize template repetitions lazily, clipped to a window."""
        k0 = 0
        if start is not None and start > self.t0:
            k0 = max(0, int((start - self.t0) // self.span) - 1)
        for k in range(k0, self.count):
            base = self.t0 + k * self.span
            if end is not None and base > end:
                return
            for rel, value in zip(self.times, self.values):
                time = base + rel
                if start is not None and time < start:
                    continue
                if end is not None and time > end:
                    return
                yield time, value


_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _scaled_product(product: float, count: int) -> Iterator[float]:
    """Yield floats whose exact sum is ``count * product``.

    Dekker's two-product: the rounded product plus its exact rounding
    error.  Lets a periodic block feed ``fsum`` the same exact real mass
    as ``count`` repeated segment products without materializing them.
    """
    if count == 1:
        yield product
        return
    k = float(count)
    hi = k * product
    c = _SPLITTER * k
    k_hi = c - (c - k)
    k_lo = k - k_hi
    c = _SPLITTER * product
    p_hi = c - (c - product)
    p_lo = product - p_hi
    yield hi
    yield ((k_hi * p_hi - hi) + k_hi * p_lo + k_lo * p_hi) + k_lo * p_lo


class StepTrace:
    """A right-continuous step function of simulation time.

    ``set(t, v)`` declares that the signal equals ``v`` from time ``t``
    until the next breakpoint.  Times must be non-decreasing; setting the
    same time twice overwrites (last write wins), which is what a supply
    rail wants when several loads switch in the same instant.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._times: List[float] = [float(start_time)]
        self._values: List[float] = [float(initial)]
        self._blocks: List[_PeriodicBlock] = []
        # High-water mark of times ever passed to set().  The compaction in
        # set() may pop the last breakpoint, so _times[-1] can move
        # *backwards*; validating against it alone would let a later call
        # rewrite a window that was already recorded.
        self._frontier: float = float(start_time)

    # -- recording ---------------------------------------------------------

    def set(self, time: float, value: float) -> None:
        """Record that the signal becomes ``value`` at ``time``."""
        time = float(time)
        if time < self._frontier:
            raise SimulationError(
                f"trace {self.name!r}: time {time} precedes last recorded "
                f"time {self._frontier}"
            )
        self._frontier = time
        if self._blocks:
            self._set_after_blocks(time, float(value))
            return
        if time == self._times[-1]:
            self._values[-1] = float(value)
            # Collapse a redundant breakpoint that now repeats its
            # predecessor's value, keeping traces minimal.
            if len(self._values) >= 2 and self._values[-2] == self._values[-1]:
                self._times.pop()
                self._values.pop()
            return
        if value == self._values[-1]:
            return  # no change; keep the trace compact
        self._times.append(time)
        self._values.append(float(value))

    def _set_after_blocks(self, time: float, value: float) -> None:
        """set() for a trace carrying compressed blocks.

        Same semantics as the plain path, except "the previous value" may
        live in a block's template, and the same-time collapse must never
        pop a breakpoint whose true predecessor is a block.
        """
        last = self._blocks[-1]
        if last.anchor >= len(self._times):
            # The compressed span is the trace's tail; appends resume
            # after it.  (time == _times[-1] is impossible here: the
            # frontier already passed the block's end.)
            if value == self.current:
                return
            self._times.append(time)
            self._values.append(value)
            return
        if time == self._times[-1]:
            self._values[-1] = value
            if (
                len(self._times) - 2 >= last.anchor
                and self._values[-2] == self._values[-1]
            ):
                self._times.pop()
                self._values.pop()
            return
        if value == self._values[-1]:
            return
        self._times.append(time)
        self._values.append(value)

    def add(self, time: float, delta: float) -> None:
        """Increment the current value by ``delta`` at ``time``."""
        self.set(time, self.current + delta)

    def append_periodic(
        self,
        t0: float,
        rel_times: Sequence[float],
        values: Sequence[float],
        span: float,
        count: int,
    ) -> None:
        """Append ``count`` repetitions of a cycle template at ``t0``.

        The template describes one cycle of a signal the simulation has
        verified to repeat exactly: ``rel_times`` are offsets in
        ``(0, span]`` from each repetition's start, and the signal holds
        ``values[-1]`` (or its prior value, for an empty template) between
        repetitions' ends and the next template breakpoint.  This is the
        fast-forward accelerator's write path; ordinary recording never
        calls it.
        """
        if span <= 0.0:
            raise SimulationError(f"trace {self.name!r}: block span must be > 0")
        if count < 1:
            raise SimulationError(f"trace {self.name!r}: block count must be >= 1")
        if len(rel_times) != len(values):
            raise SimulationError(
                f"trace {self.name!r}: template times/values length mismatch"
            )
        t0 = float(t0)
        if t0 < self._frontier:
            raise SimulationError(
                f"trace {self.name!r}: block at {t0} precedes last recorded "
                f"time {self._frontier}"
            )
        rel = tuple(float(t) for t in rel_times)
        if any(b <= a for a, b in zip(rel, rel[1:])):
            raise SimulationError(
                f"trace {self.name!r}: template times must ascend"
            )
        if rel and not (0.0 < rel[0] and rel[-1] <= span):
            raise SimulationError(
                f"trace {self.name!r}: template times must lie in (0, span]"
            )
        block = _PeriodicBlock(
            t0, float(span), int(count), rel,
            tuple(float(v) for v in values), len(self._times),
        )
        self._blocks.append(block)
        self._frontier = block.end

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Full internal state, for :mod:`repro.sim.checkpoint`.

        Every float round-trips losslessly (the checkpoint layer encodes
        them as hex), so a restored trace records, compacts, and
        integrates bit-identically to the original from the restore
        point on.
        """
        return {
            "name": self.name,
            "times": list(self._times),
            "values": list(self._values),
            "blocks": [
                [b.t0, b.span, b.count, list(b.times), list(b.values),
                 b.anchor]
                for b in self._blocks
            ],
            "frontier": self._frontier,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StepTrace":
        """Rebuild a trace from :meth:`state_dict` output."""
        trace = cls(name=state["name"])
        trace._times = [float(t) for t in state["times"]]
        trace._values = [float(v) for v in state["values"]]
        trace._blocks = [
            _PeriodicBlock(
                float(t0), float(span), int(count),
                tuple(float(t) for t in times),
                tuple(float(v) for v in values), int(anchor),
            )
            for t0, span, count, times, values, anchor in state["blocks"]
        ]
        trace._frontier = float(state["frontier"])
        return trace

    # -- queries -----------------------------------------------------------

    @property
    def start_time(self) -> float:
        """Time of the first breakpoint."""
        return self._times[0]

    @property
    def last_time(self) -> float:
        """Time of the most recent breakpoint."""
        for block in reversed(self._blocks):
            if block.anchor < len(self._times):
                break
            if block.times:
                return block.t0 + (block.count - 1) * block.span + block.times[-1]
        return self._times[-1]

    @property
    def current(self) -> float:
        """Value after the most recent breakpoint."""
        for block in reversed(self._blocks):
            if block.anchor < len(self._times):
                break
            if block.values:
                return block.values[-1]
        return self._values[-1]

    @property
    def compressed(self) -> bool:
        """True when the trace carries fast-forwarded periodic blocks."""
        return bool(self._blocks)

    def _value_before_block(self, block_index: int) -> float:
        block = self._blocks[block_index]
        for j in range(block_index - 1, -1, -1):
            previous = self._blocks[j]
            if previous.anchor != block.anchor:
                break
            if previous.values:
                return previous.values[-1]
        return self._values[block.anchor - 1]

    def value_at(self, time: float) -> float:
        """Signal value at ``time`` (right-continuous lookup)."""
        if time < self._times[0]:
            raise SimulationError(
                f"trace {self.name!r}: query at {time} precedes start {self._times[0]}"
            )
        if not self._blocks:
            return self._values[bisect.bisect_right(self._times, time) - 1]
        for bi in range(len(self._blocks) - 1, -1, -1):
            block = self._blocks[bi]
            if time < block.t0:
                continue
            if time < block.end:
                return block.value_at(time, self._value_before_block(bi))
            # After this block: a plain breakpoint recorded at or after
            # the block's anchor wins; otherwise the block's final value
            # still holds.
            index = bisect.bisect_right(self._times, time) - 1
            if index >= block.anchor:
                return self._values[index]
            return block.final_value(self._value_before_block(bi))
        return self._values[bisect.bisect_right(self._times, time) - 1]

    def iter_breakpoints(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Iterator[Tuple[float, float]]:
        """Lazily yield ``(time, value)`` breakpoints, optionally windowed.

        Compressed blocks are materialized on the fly, so this is the
        memory-safe way to walk a fast-forwarded trace (a full
        :meth:`breakpoints` list of a simulated year does not fit in RAM).
        """
        blocks = self._blocks
        first = 0
        if start is not None:
            first = bisect.bisect_left(self._times, start)
        block_index = 0
        for i in range(first, len(self._times)):
            while block_index < len(blocks) and blocks[block_index].anchor <= i:
                yield from blocks[block_index].iter_breakpoints(start, end)
                block_index += 1
            time = self._times[i]
            if end is not None and time > end:
                return
            yield time, self._values[i]
        while block_index < len(blocks):
            yield from blocks[block_index].iter_breakpoints(start, end)
            block_index += 1

    def cursor(self) -> "TraceCursor":
        """A sequential reader for monotone time scans (O(1) amortized)."""
        return TraceCursor(self)

    def breakpoints(self) -> List[Tuple[float, float]]:
        """The ``(time, value)`` pairs defining the step function.

        Fully materializes compressed blocks — prefer
        :meth:`iter_breakpoints` with a window on fast-forwarded traces.
        """
        return list(self.iter_breakpoints())

    def integral(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Exact integral of the step function over ``[start, end]``.

        Defaults to the full recorded span.  For a power trace this is the
        energy in joules; for a current trace, the charge in coulombs.

        The result is the correctly rounded sum of the segment products
        (``math.fsum``), so it does not depend on how the trace is stored:
        a compressed periodic block integrates bit-identically to its
        materialized equivalent.

        The trace is undefined before its first breakpoint, so a window
        starting before ``start_time`` raises :class:`SimulationError`
        (consistent with :meth:`value_at`) rather than silently dropping
        the missing span — which would corrupt any window average taken
        from t=0 on a trace recorded later.
        """
        if start is None:
            start = self._times[0]
        if end is None:
            end = self.last_time
        if start < self._times[0]:
            raise SimulationError(
                f"trace {self.name!r}: integral window starts at {start}, "
                f"before trace start {self._times[0]}"
            )
        if end < start:
            raise SimulationError(f"integral bounds reversed: [{start}, {end}]")
        if end == start:
            return 0.0
        return math.fsum(self._products(start, end))

    def _products(self, start: float, end: float) -> Iterator[float]:
        """Yield floats whose exact sum is the integral over [start, end].

        For plain spans this is one ``value * dt`` product per segment.
        A periodic block fully inside the window contributes each template
        product once, scaled by its repetition count as an exact
        two-float (Dekker) pair — the *exact real sum* fed to ``fsum`` is
        unchanged, so the correctly rounded result is bit-identical to
        integrating the materialized breakpoints, at O(template) cost
        instead of O(template * count).
        """
        previous_t = start
        previous_v = self.value_at(start)
        first = bisect.bisect_left(self._times, start)
        blocks = self._blocks
        block_index = 0
        for i in range(first, len(self._times) + 1):
            while block_index < len(blocks) and blocks[block_index].anchor <= i:
                block = blocks[block_index]
                block_index += 1
                if not block.values:
                    continue
                rel = block.times
                last_bp = (
                    block.t0 + (block.count - 1) * block.span + rel[-1]
                )
                if last_bp <= start:
                    continue
                if start <= block.t0 and block.end <= end:
                    # Fully covered: emit the template products scaled.
                    t0 = block.t0
                    values = block.values
                    yield previous_v * ((t0 + rel[0]) - previous_t)
                    for j in range(len(rel) - 1):
                        dt = (t0 + rel[j + 1]) - (t0 + rel[j])
                        yield from _scaled_product(values[j] * dt, block.count)
                    if block.count > 1:
                        gap = (t0 + block.span + rel[0]) - (t0 + rel[-1])
                        yield from _scaled_product(
                            values[-1] * gap, block.count - 1
                        )
                    previous_t = last_bp
                    previous_v = values[-1]
                    continue
                # Window boundary cuts the block: materialize the clipped part.
                for time, value in block.iter_breakpoints(start, end):
                    if time <= start:
                        continue
                    if time >= end:
                        break
                    yield previous_v * (time - previous_t)
                    previous_t, previous_v = time, value
            if i >= len(self._times):
                break
            time = self._times[i]
            if time <= start:
                continue
            if time >= end:
                break
            yield previous_v * (time - previous_t)
            previous_t, previous_v = time, self._values[i]
        yield previous_v * (end - previous_t)

    def mean(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Time-average of the signal over ``[start, end]``.

        Like :meth:`integral`, raises :class:`SimulationError` when the
        window starts before the trace's first breakpoint.
        """
        if start is None:
            start = self._times[0]
        if end is None:
            end = self.last_time
        if start < self._times[0]:
            raise SimulationError(
                f"trace {self.name!r}: mean window starts at {start}, "
                f"before trace start {self._times[0]}"
            )
        if end <= start:
            raise SimulationError(f"mean needs a positive span, got [{start}, {end}]")
        return self.integral(start, end) / (end - start)

    def maximum(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Maximum value attained on ``[start, end]``."""
        return max(v for _, v in self._segments_overlapping(start, end))

    def minimum(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Minimum value attained on ``[start, end]``."""
        return min(v for _, v in self._segments_overlapping(start, end))

    def sample(self, times: Sequence[float]) -> List[float]:
        """Sample the step function at each time in ``times``."""
        return [self.value_at(t) for t in times]

    def _segments_overlapping(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Iterable[Tuple[float, float]]:
        """(time, value) pairs covering every value attained on the window.

        Feeds :meth:`minimum`/:meth:`maximum` only, so a periodic block
        fully inside the window yields its template once — repetitions
        attain the same values and would only slow the scan down.
        """
        if start is None:
            start = self._times[0]
        if end is None:
            end = self.last_time
        start = max(start, self._times[0])
        yield start, self.value_at(start)
        first = bisect.bisect_left(self._times, start)
        blocks = self._blocks
        block_index = 0
        for i in range(first, len(self._times) + 1):
            while block_index < len(blocks) and blocks[block_index].anchor <= i:
                block = blocks[block_index]
                block_index += 1
                if not block.values:
                    continue
                rel = block.times
                last_bp = (
                    block.t0 + (block.count - 1) * block.span + rel[-1]
                )
                if last_bp <= start:
                    continue
                if start <= block.t0 and block.end <= end:
                    for j in range(len(rel)):
                        yield block.t0 + rel[j], block.values[j]
                    continue
                for time, value in block.iter_breakpoints(start, end):
                    if time > start:
                        yield time, value
            if i >= len(self._times):
                break
            time = self._times[i]
            if time <= start:
                continue
            if time > end:
                break
            yield time, self._values[i]

    def __len__(self) -> int:
        return len(self._times) + sum(
            len(block.times) * block.count for block in self._blocks
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        blocks = f", {len(self._blocks)} blocks" if self._blocks else ""
        return (
            f"StepTrace({self.name!r}, {len(self._times)} breakpoints{blocks}, "
            f"current={self.current:g})"
        )


class TraceCursor:
    """Sequential right-continuous reader over a :class:`StepTrace`.

    ``value_at`` must be called with non-decreasing times; each call
    advances linearly from the previous position instead of re-bisecting
    the whole breakpoint list, which turns an O(n log n) monotone scan
    (profiles, CSV resampling) into O(n).  The trace must not be mutated
    while a cursor is reading it.
    """

    def __init__(self, trace: StepTrace) -> None:
        self._trace = trace
        self._iterator = trace.iter_breakpoints()
        self._value = trace._values[0]
        self._next: Optional[Tuple[float, float]] = next(self._iterator, None)
        self._last_query: Optional[float] = None

    def value_at(self, time: float) -> float:
        """Signal value at ``time``; times must not decrease across calls."""
        if time < self._trace.start_time:
            raise SimulationError(
                f"trace {self._trace.name!r}: query at {time} precedes start "
                f"{self._trace.start_time}"
            )
        if self._last_query is not None and time < self._last_query:
            raise SimulationError(
                f"trace cursor requires non-decreasing times: {time} after "
                f"{self._last_query}"
            )
        self._last_query = time
        while self._next is not None and self._next[0] <= time:
            self._value = self._next[1]
            self._next = next(self._iterator, None)
        return self._value


def _merge_region(
    chunks: List[Iterable[Tuple[float, float, int]]],
    current: List[float],
    emit,
) -> None:
    """K-way merge one region of breakpoint streams into ``emit(t, total)``.

    ``current`` carries each trace's running value and is updated in
    place.  Summing the carried values (rather than accumulating deltas)
    keeps the result bit-identical to the pointwise definition.
    """
    previous = None
    for time, value, index in heapq.merge(*chunks):
        if previous is not None and time != previous:
            emit(previous, sum(current))
        current[index] = value
        previous = time
    if previous is not None:
        emit(previous, sum(current))


def sum_traces(traces: Sequence[StepTrace], name: str = "sum") -> StepTrace:
    """Pointwise sum of several step traces as a new trace.

    Used to build a total-node power trace from per-component traces for
    the Fig 6 style stacked profile.

    A trace contributes 0 before its own start time, so traces recorded
    from different moments (lazily-created recorder channels) sum
    consistently.

    Implemented as a single k-way merge over the traces' breakpoint lists:
    each trace's current value is carried forward and the total re-summed
    only at emitted times, so the cost is ``O(B (log n + n))`` for ``B``
    total breakpoints over ``n`` traces — not the ``O(B * n log B)`` of
    re-querying every trace via bisect at every breakpoint.

    Fast-forwarded traces sum without materializing: when every input
    carries the same compressed block geometry (the accelerator writes
    all channels in lock-step, so this holds by construction), the block
    templates are merged once and the result stays compressed.  Mixed or
    misaligned block geometries raise :class:`SimulationError`.
    """
    if not traces:
        raise SimulationError("sum_traces needs at least one trace")
    start = min(trace.start_time for trace in traces)
    out = StepTrace(name=name, initial=0.0, start_time=start)
    current = [0.0] * len(traces)

    if not any(trace._blocks for trace in traces):
        _merge_region(
            [
                zip(trace._times, trace._values, itertools.repeat(index))
                for index, trace in enumerate(traces)
            ],
            current,
            out.set,
        )
        return out

    geometry = [
        tuple((b.t0, b.span, b.count) for b in trace._blocks) for trace in traces
    ]
    if any(g != geometry[0] for g in geometry):
        raise SimulationError(
            "sum_traces: traces carry misaligned compressed spans; "
            "materialize with breakpoints() before summing"
        )
    block_count = len(traces[0]._blocks)
    for region in range(block_count + 1):
        chunks = []
        for index, trace in enumerate(traces):
            lo = trace._blocks[region - 1].anchor if region > 0 else 0
            hi = (
                trace._blocks[region].anchor
                if region < block_count
                else len(trace._times)
            )
            chunks.append(
                zip(
                    trace._times[lo:hi],
                    trace._values[lo:hi],
                    itertools.repeat(index),
                )
            )
        _merge_region(chunks, current, out.set)
        if region == block_count:
            break
        reference = traces[0]._blocks[region]
        for index, trace in enumerate(traces):
            block = trace._blocks[region]
            if block.values and block.values[-1] != current[index]:
                raise SimulationError(
                    "sum_traces: compressed span does not return to its "
                    f"entry value on trace {trace.name!r}"
                )
        rel_times: List[float] = []
        rel_values: List[float] = []
        _merge_region(
            [
                zip(
                    trace._blocks[region].times,
                    trace._blocks[region].values,
                    itertools.repeat(index),
                )
                for index, trace in enumerate(traces)
            ],
            current,
            lambda t, v: (rel_times.append(t), rel_values.append(v)),
        )
        out.append_periodic(
            reference.t0, rel_times, rel_values, reference.span, reference.count
        )
    return out
