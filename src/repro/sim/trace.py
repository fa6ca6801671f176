"""Piecewise-constant signal traces with exact integration.

Electrical quantities in this simulator (rail power, battery current,
harvester output) only change at discrete events, so they are exactly
representable as step functions.  :class:`StepTrace` records the breakpoints
and supports exact time integrals — the 6 µW average-power headline number
comes out of ``trace.integral() / trace.duration()`` with no quadrature
error.

Two representations coexist inside a trace:

* **plain breakpoints** — parallel ``times``/``values`` float64 buffers
  (``array('d')``, 8 bytes a number), one entry per recorded change (the
  only representation most traces ever use);
* **periodic blocks** — a compressed run of ``count`` repetitions of a
  cycle template, appended by the fast-forward accelerator when the
  simulation has proven the cycle repeats bit-identically
  (see :mod:`repro.sim.fastforward`).  A year of six-second wake cycles
  stores one template instead of twenty million breakpoints.

Integrals are computed with :func:`math.fsum`, which returns the correctly
rounded sum of the segment products regardless of how the segments are
grouped — so a compressed trace integrates to the *bit-identical* value its
fully materialized equivalent would.

Every read (integrals, minima and maxima, windows, sums of traces) walks
the breakpoint buffers as runs of up to ``_CHUNK`` breakpoints, with NumPy
doing the per-breakpoint arithmetic.  NumPy's float64 ``*``, ``-`` and
``+`` are the same IEEE-754 operations as Python's, so each product, time
difference and total comes out bit for bit as a one-at-a-time loop would
compute it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..units import left_sum

#: Breakpoints per trace that one bulk read turns into arrays at a time:
#: reads run at array speed while their scratch memory stays bounded,
#: however long the trace.
_CHUNK = 4096

_INF = math.inf

#: A run of materialized breakpoints: parallel ascending times and values.
_Run = Tuple[np.ndarray, np.ndarray]


def _floats(buffer: array[float], lo: int = 0,
            hi: Optional[int] = None) -> np.ndarray:
    """``buffer[lo:hi]`` as a float64 array over a copy of the slice.

    Never a view of ``buffer`` itself: while a view is alive the buffer
    is exported, and its next ``append`` would raise ``BufferError``.
    """
    return np.frombuffer(buffer[lo:hi], np.float64)


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
        times: array[float],
        values: array[float],
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

    @property
    def last_breakpoint(self) -> float:
        """Time of the final repetition's last template breakpoint."""
        return self.t0 + (self.count - 1) * self.span + self.times[-1]

    def runs(self, start: float, end: float, closed: bool) -> Iterator[_Run]:
        """The materialized breakpoints after ``start`` and before ``end``.

        ``closed`` keeps a breakpoint at ``end`` itself.  Repetition ``k``
        sits at ``t0 + k * span + rel``, computed as a one-at-a-time loop
        would, and whole repetitions are materialized ``_CHUNK``
        breakpoints at a time.
        """
        if not self.times:
            return
        k0 = 0
        if start > self.t0:
            k0 = max(0, int((start - self.t0) // self.span) - 1)
        k1 = self.count
        if end < self.end:
            k1 = min(k1, int((end - self.t0) // self.span) + 2)
        rel = _floats(self.times)
        values = _floats(self.values)
        step = max(1, _CHUNK // len(rel))
        for k in range(k0, k1, step):
            reps = min(step, k1 - k)
            base = self.t0 + np.arange(k, k + reps, dtype=np.float64) * self.span
            times = (base[:, None] + rel).ravel()
            keep = (times > start) & (times <= end if closed else times < end)
            if keep.any():
                yield times[keep], np.tile(values, reps)[keep]


_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _scaled(products: np.ndarray, count: int) -> List[np.ndarray]:
    """Arrays whose exact sum is ``count * products``.

    Dekker's two-product, elementwise: each rounded product plus its exact
    rounding error.  Lets a periodic block feed ``fsum`` the same exact
    real mass as ``count`` repeated segment products without
    materializing them.
    """
    if count == 1:
        return [products]
    k = float(count)
    hi = k * products
    c = _SPLITTER * k
    k_hi = c - (c - k)
    k_lo = k - k_hi
    c = _SPLITTER * products
    p_hi = c - (c - products)
    p_lo = products - p_hi
    return [hi, ((k_hi * p_hi - hi) + k_hi * p_lo + k_lo * p_hi) + k_lo * p_lo]


class StepTrace:
    """A right-continuous step function of simulation time.

    ``set(t, v)`` declares that the signal equals ``v`` from time ``t``
    until the next breakpoint.  Times must be non-decreasing; setting the
    same time twice overwrites (last write wins), which is what a supply
    rail wants when several loads switch in the same instant.

    Breakpoints live in two ``array('d')`` buffers, 8 bytes a number.
    Reads walk copies of the slices they need, so no read leaves a buffer
    exported to block the next append.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        start_time = float(start_time)
        initial = float(initial)
        if not (-_INF < start_time < _INF and -_INF < initial < _INF):
            raise SimulationError(
                f"trace {name!r}: start time {start_time} or initial value "
                f"{initial} is not finite")
        self.name = name
        self._times = array("d", [start_time])
        self._values = array("d", [initial])
        self._blocks: List[_PeriodicBlock] = []
        # High-water mark of times ever passed to set().  The compaction in
        # set() may pop the last breakpoint, so _times[-1] can move
        # *backwards*; validating against it alone would let a later call
        # rewrite a window that was already recorded.
        self._frontier: float = start_time

    # -- recording ---------------------------------------------------------

    def set(self, time: float, value: float) -> None:
        """Record that the signal becomes ``value`` at ``time`` (both finite)."""
        time = float(time)
        # ``value - value`` is 0.0 for a finite value, NaN otherwise.
        if not (self._frontier <= time < _INF and value - value == 0.0):
            raise SimulationError(self._refusal(time, value))
        self._frontier = time
        if self._blocks and self._blocks[-1].anchor >= len(self._times):
            # The compressed span is the trace's tail; appends resume
            # after it.  (time == _times[-1] is impossible here: the
            # frontier already passed the block's end.)
            if value != self.current:
                self._times.append(time)
                self._values.append(value)
            return
        if time == self._times[-1]:
            self._values[-1] = value
            # Collapse a redundant breakpoint that now repeats its
            # predecessor's value, keeping traces minimal -- unless that
            # predecessor is a compressed block's.
            floor = self._blocks[-1].anchor if self._blocks else 0
            if len(self._times) - 2 >= floor and self._values[-2] == value:
                self._times.pop()
                self._values.pop()
            return
        if value == self._values[-1]:
            return  # no change; keep the trace compact
        self._times.append(time)
        self._values.append(value)

    def _refusal(self, time: float, value: float) -> str:
        """Why :meth:`set` refuses ``(time, value)``."""
        if -_INF < time < _INF and -_INF < value < _INF:
            return (f"trace {self.name!r}: time {time} precedes last recorded "
                    f"time {self._frontier}")
        return f"trace {self.name!r}: time {time} or value {value} is not finite"

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
        calls it.  Every time, span and value must be finite.
        """
        span = float(span)
        if not 0.0 < span < _INF:
            raise SimulationError(
                f"trace {self.name!r}: block span must be > 0 and finite"
            )
        if count < 1:
            raise SimulationError(f"trace {self.name!r}: block count must be >= 1")
        if len(rel_times) != len(values):
            raise SimulationError(
                f"trace {self.name!r}: template times/values length mismatch"
            )
        block = _PeriodicBlock(
            float(t0), span, int(count), array("d", rel_times),
            array("d", values), len(self._times),
        )
        if not (self._frontier <= block.t0 and block.end < _INF):
            raise SimulationError(
                f"trace {self.name!r}: block [{block.t0}, {block.end}) is not "
                f"finite or precedes last recorded time {self._frontier}"
            )
        rel = _floats(block.times)
        if len(rel) and not (
            0.0 < rel[0] and rel[-1] <= span and (np.diff(rel) > 0.0).all()
            and np.isfinite(_floats(block.values)).all()
        ):
            raise SimulationError(
                f"trace {self.name!r}: template times must ascend in "
                f"(0, span] and its values be finite"
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
            "times": self._times.tolist(),
            "values": self._values.tolist(),
            "blocks": [
                [b.t0, b.span, b.count, b.times.tolist(), b.values.tolist(),
                 b.anchor]
                for b in self._blocks
            ],
            "frontier": self._frontier,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StepTrace":
        """Rebuild a trace from :meth:`state_dict` output."""
        trace = cls(name=state["name"])
        trace._times = array("d", state["times"])
        trace._values = array("d", state["values"])
        trace._blocks = [
            _PeriodicBlock(
                float(t0), float(span), int(count),
                array("d", times), array("d", values), int(anchor),
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
                return block.last_breakpoint
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
        """Lazily yield ``(time, value)`` breakpoints in ``[start, end]``.

        Compressed blocks are materialized a chunk at a time, so this is
        the memory-safe way to walk a fast-forwarded trace (a full
        :meth:`breakpoints` list of a simulated year does not fit in RAM).
        """
        # The largest float below ``start``: "after it" is "from start on".
        after = -math.inf if start is None else math.nextafter(start, -math.inf)
        for times, values in self._runs(
            after, math.inf if end is None else end,
            closed=True, whole_blocks=False,
        ):
            yield from zip(times.tolist(), values.tolist())

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
        with np.errstate(over="ignore", invalid="ignore"):
            return math.fsum(itertools.chain.from_iterable(
                self._products(start, end)
            ))

    def _runs(
        self, start: float, end: float, closed: bool, whole_blocks: bool
    ) -> Iterator[Union[_Run, _PeriodicBlock]]:
        """The breakpoints after ``start`` and before ``end``, in order.

        Yields runs of at most ``_CHUNK`` breakpoints as float64 arrays:
        copied slices of the plain buffers, and materialized repetitions
        of the periodic blocks the window cuts.  ``closed`` keeps a
        breakpoint at ``end`` itself.  With ``whole_blocks``, a block
        lying inside ``[start, end]`` is yielded as the block itself, for
        the caller to read its template once, and blocks that add nothing
        to the window are skipped.
        """
        times = self._times
        i = bisect.bisect_right(times, start)
        hi = (bisect.bisect_right if closed else bisect.bisect_left)(times, end)
        for block in self._blocks:
            if block.anchor > hi:
                # A plain breakpoint past the window precedes the block.
                break
            yield from self._plain_runs(i, block.anchor)
            i = max(i, block.anchor)
            if not block.times or block.last_breakpoint <= start \
                    or block.t0 >= end:
                continue
            if whole_blocks and start <= block.t0 and block.end <= end:
                yield block
            else:
                yield from block.runs(start, end, closed)
        yield from self._plain_runs(i, hi)

    def _plain_runs(self, lo: int, hi: int) -> Iterator[_Run]:
        for a in range(lo, hi, _CHUNK):
            b = min(a + _CHUNK, hi)
            yield _floats(self._times, a, b), _floats(self._values, a, b)

    def window(
        self, start: float, end: float
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Breakpoints in ``(start, end]`` as ``(rel_times, values)``.

        Relative times are ``t - start``.  Periodic blocks inside the
        window are materialized.
        """
        rel_times: List[float] = []
        values: List[float] = []
        for run_times, run_values in self._runs(
            start, end, closed=True, whole_blocks=False
        ):
            rel_times += (run_times - start).tolist()
            values += run_values.tolist()
        return tuple(rel_times), tuple(values)

    def _products(self, start: float, end: float) -> Iterator[List[float]]:
        """Lists of floats whose exact sum is the integral over [start, end].

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
        for run in self._runs(start, end, closed=False, whole_blocks=True):
            if isinstance(run, _PeriodicBlock):
                t0, rel, values = run.t0, run.times, run.values
                yield [previous_v * ((t0 + rel[0]) - previous_t)]
                products = _floats(values)[:-1] * np.diff(t0 + _floats(rel))
                parts = _scaled(products, run.count)
                if run.count > 1:
                    gap = (t0 + run.span + rel[0]) - (t0 + rel[-1])
                    parts += _scaled(np.array([values[-1] * gap]), run.count - 1)
                for part in parts:
                    yield part.tolist()
                previous_t = run.last_breakpoint
                previous_v = values[-1]
                continue
            times, values = run
            yield [previous_v * (times[0].item() - previous_t)]
            yield (values[:-1] * np.diff(times)).tolist()
            previous_t, previous_v = times[-1].item(), values[-1].item()
        yield [previous_v * (end - previous_t)]

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
        return max(self._attained(start, end))

    def minimum(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Minimum value attained on ``[start, end]``."""
        return min(self._attained(start, end))

    def sample(self, times: Sequence[float]) -> List[float]:
        """Sample the step function at each time in ``times``."""
        return [self.value_at(t) for t in times]

    def _attained(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Iterator[float]:
        """Every value attained on the window, in order, as one iterator.

        Feeds :meth:`minimum`/:meth:`maximum` only, so a periodic block
        fully inside the window yields its template once — repetitions
        attain the same values and would only slow the scan down.
        """
        if start is None:
            start = self._times[0]
        if end is None:
            end = self.last_time
        start = max(start, self._times[0])
        runs = self._runs(start, end, closed=True, whole_blocks=True)
        values = (
            run.values if isinstance(run, _PeriodicBlock) else run[1].tolist()
            for run in runs
        )
        return itertools.chain(
            [self.value_at(start)], itertools.chain.from_iterable(values)
        )

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
    the whole breakpoint buffer, which turns an O(n log n) monotone scan
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


def _merge(
    runs: List[_Run], current: List[float]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """K-way merge one region of breakpoint runs into ``(times, totals)``.

    ``runs`` holds each trace's ascending ``(times, values)`` for the
    region, in trace order; ``current`` holds each trace's value entering
    the region and is updated in place to its value at the region's end.
    Yields, a chunk at a time, the union of the region's times and the
    total at each: the left fold of every trace's value there, in trace
    order — bit-identical to the pointwise definition.

    A chunk ends at the earliest time by which some trace has contributed
    ``_CHUNK`` breakpoints, so no trace contributes more than that to one
    chunk.
    """
    cursors = [0] * len(runs)
    while True:
        cut = math.inf
        for (times, _), lo in zip(runs, cursors):
            if lo + _CHUNK <= len(times):
                cut = min(cut, times[lo + _CHUNK - 1])
        chunk = []
        for index, ((times, values), lo) in enumerate(zip(runs, cursors)):
            hi = lo + int(np.searchsorted(times[lo:lo + _CHUNK], cut, "right"))
            chunk.append((times[lo:hi], values[lo:hi]))
            cursors[index] = hi
        if not any(len(times) for times, _ in chunk):
            return
        union = np.concatenate([times for times, _ in chunk])
        union.sort()
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]
        rows = []
        for index, (times, values) in enumerate(chunk):
            if not len(values):
                rows.append(current[index])
                continue
            held = np.concatenate(([current[index]], values))
            rows.append(held[np.searchsorted(times, union, side="right")])
            current[index] = values[-1].item()
        yield union, left_sum(rows)


def _regions(
    traces: Sequence[StepTrace],
) -> Iterator[Tuple[Optional[_PeriodicBlock], List[float], List[float]]]:
    """Walk the pointwise sum of ``traces`` without building it.

    The walk yields ``(None, times, totals)`` chunks for the plain
    stretches and, for each compressed span, one ``(block, rel_times,
    totals)`` holding the merged template; ``block`` is the first
    trace's, which carries the span's geometry.  Summing blocks needs
    every trace to carry the same block geometry (the accelerator writes
    all channels in lock-step, so this holds by construction) and each
    block to return to its entry value; anything else raises
    :class:`SimulationError` (the geometry before the walk starts).

    A trace contributes 0 before its own start time, so traces recorded
    from different moments (lazily-created recorder channels) sum
    consistently.
    """
    if not traces:
        raise SimulationError("sum_traces needs at least one trace")
    geometry = [
        tuple((b.t0, b.span, b.count) for b in trace._blocks) for trace in traces
    ]
    if any(g != geometry[0] for g in geometry):
        raise SimulationError(
            "sum_traces: traces carry misaligned compressed spans; "
            "materialize with breakpoints() before summing"
        )
    return _walk(traces)


def _walk(
    traces: Sequence[StepTrace],
) -> Iterator[Tuple[Optional[_PeriodicBlock], np.ndarray, np.ndarray]]:
    current = [0.0] * len(traces)
    lows = [0] * len(traces)
    for region in range(len(traces[0]._blocks) + 1):
        runs = []
        for index, trace in enumerate(traces):
            hi = (
                trace._blocks[region].anchor
                if region < len(trace._blocks)
                else len(trace._times)
            )
            runs.append((_floats(trace._times, lows[index], hi),
                         _floats(trace._values, lows[index], hi)))
            lows[index] = hi
        for times, totals in _merge(runs, current):
            yield None, times, totals
        if region == len(traces[0]._blocks):
            return
        blocks = [trace._blocks[region] for trace in traces]
        for trace, block, entry in zip(traces, blocks, current):
            if block.values and block.values[-1] != entry:
                raise SimulationError(
                    "sum_traces: compressed span does not return to its "
                    f"entry value on trace {trace.name!r}"
                )
        merged = list(_merge(
            [(_floats(b.times), _floats(b.values)) for b in blocks], current
        ))
        yield (
            blocks[0],
            np.concatenate([times for times, _ in merged] or [np.empty(0)]),
            np.concatenate([totals for _, totals in merged] or [np.empty(0)]),
        )


def sum_traces(traces: Sequence[StepTrace], name: str = "sum") -> StepTrace:
    """Pointwise sum of several step traces as a new trace.

    Used to build a total-node power trace from per-component traces for
    the Fig 6 style stacked profile.  See :func:`_regions` for how traces
    starting at different times and compressed spans sum.

    Implemented as a single k-way merge over the traces' breakpoint runs,
    each trace's value carried forward between its breakpoints, so the
    cost is ``O(B log B)`` array work for ``B`` total breakpoints — not the
    ``O(B * n log B)`` of re-querying every trace via bisect at every
    breakpoint.  Compressed spans sum without materializing: the block
    templates are merged once and the result stays compressed.
    """
    regions = _regions(traces)
    start = min(trace.start_time for trace in traces)
    out = StepTrace(name=name, initial=0.0, start_time=start)
    with np.errstate(over="ignore", invalid="ignore"):
        for block, times, totals in regions:
            if block is None:
                for time, total in zip(times.tolist(), totals.tolist()):
                    out.set(time, total)
            else:
                out.append_periodic(
                    block.t0, times, totals, block.span, block.count
                )
    return out


def sum_minimum(traces: Sequence[StepTrace]) -> float:
    """Minimum of the pointwise sum of ``traces`` over its whole span.

    ``sum_traces(traces).minimum()`` without building the summed trace.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return min(itertools.chain.from_iterable(
            totals.tolist() for _, _, totals in _regions(traces)
        ))
