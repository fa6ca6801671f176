"""Bulk trace reads equal the per-breakpoint reads they replaced.

``StepTrace`` reads walk breakpoint runs as arrays.  The one-breakpoint-
at-a-time versions they replaced are kept below as references; a
Hypothesis test draws traces with same-time overwrites, equal-value
collapses, lazily created channels, periodic blocks (empty templates
included) and windows that clip a block or start on a breakpoint, and
checks every read (``iter_breakpoints`` too) float-hex equal, or
raising the same exception.

Times sit on a dyadic grid, where a block's repetitions translate
exactly, as the fast-forward accelerator guarantees by never leaping
across a power of two (see :mod:`repro.sim.fastforward`).
"""

import bisect
import heapq
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.fastforward import extract_template, windows_match
from repro.sim.trace import StepTrace, sum_minimum, sum_traces

# -- the per-breakpoint references ---------------------------------------------

_SPLITTER = 134217729.0


def ref_scaled_product(product, count):
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


def ref_block_breakpoints(block, start, end):
    k0 = 0
    if start is not None and start > block.t0:
        k0 = max(0, int((start - block.t0) // block.span) - 1)
    for k in range(k0, block.count):
        base = block.t0 + k * block.span
        if end is not None and base > end:
            return
        for rel, value in zip(block.times, block.values):
            time = base + rel
            if start is not None and time < start:
                continue
            if end is not None and time > end:
                return
            yield time, value


def ref_breakpoints(trace, start=None, end=None):
    blocks = trace._blocks
    first = 0
    if start is not None:
        first = bisect.bisect_left(trace._times, start)
    block_index = 0
    for i in range(first, len(trace._times)):
        while block_index < len(blocks) and blocks[block_index].anchor <= i:
            yield from ref_block_breakpoints(blocks[block_index], start, end)
            block_index += 1
        time = trace._times[i]
        if end is not None and time > end:
            return
        yield time, trace._values[i]
    while block_index < len(blocks):
        yield from ref_block_breakpoints(blocks[block_index], start, end)
        block_index += 1


def ref_products(trace, start, end):
    previous_t = start
    previous_v = trace.value_at(start)
    first = bisect.bisect_left(trace._times, start)
    blocks = trace._blocks
    block_index = 0
    for i in range(first, len(trace._times) + 1):
        while block_index < len(blocks) and blocks[block_index].anchor <= i:
            block = blocks[block_index]
            block_index += 1
            if not block.values:
                continue
            rel = block.times
            last_bp = block.t0 + (block.count - 1) * block.span + rel[-1]
            if last_bp <= start:
                continue
            if start <= block.t0 and block.end <= end:
                t0 = block.t0
                values = block.values
                yield previous_v * ((t0 + rel[0]) - previous_t)
                for j in range(len(rel) - 1):
                    dt = (t0 + rel[j + 1]) - (t0 + rel[j])
                    yield from ref_scaled_product(values[j] * dt, block.count)
                if block.count > 1:
                    gap = (t0 + block.span + rel[0]) - (t0 + rel[-1])
                    yield from ref_scaled_product(
                        values[-1] * gap, block.count - 1
                    )
                previous_t = last_bp
                previous_v = values[-1]
                continue
            for time, value in ref_block_breakpoints(block, start, end):
                if time <= start:
                    continue
                if time >= end:
                    break
                yield previous_v * (time - previous_t)
                previous_t, previous_v = time, value
        if i >= len(trace._times):
            break
        time = trace._times[i]
        if time <= start:
            continue
        if time >= end:
            break
        yield previous_v * (time - previous_t)
        previous_t, previous_v = time, trace._values[i]
    yield previous_v * (end - previous_t)


def ref_integral(trace, start=None, end=None):
    if start is None:
        start = trace._times[0]
    if end is None:
        end = trace.last_time
    if start < trace._times[0]:
        raise SimulationError(
            f"trace {trace.name!r}: integral window starts at {start}, "
            f"before trace start {trace._times[0]}"
        )
    if end < start:
        raise SimulationError(f"integral bounds reversed: [{start}, {end}]")
    if end == start:
        return 0.0
    return math.fsum(ref_products(trace, start, end))


def ref_attained(trace, start=None, end=None):
    if start is None:
        start = trace._times[0]
    if end is None:
        end = trace.last_time
    start = max(start, trace._times[0])
    yield trace.value_at(start)
    first = bisect.bisect_left(trace._times, start)
    blocks = trace._blocks
    block_index = 0
    for i in range(first, len(trace._times) + 1):
        while block_index < len(blocks) and blocks[block_index].anchor <= i:
            block = blocks[block_index]
            block_index += 1
            if not block.values:
                continue
            rel = block.times
            last_bp = block.t0 + (block.count - 1) * block.span + rel[-1]
            if last_bp <= start:
                continue
            if start <= block.t0 and block.end <= end:
                yield from block.values
                continue
            for time, value in ref_block_breakpoints(block, start, end):
                if time > start:
                    yield value
        if i >= len(trace._times):
            break
        time = trace._times[i]
        if time <= start:
            continue
        if time > end:
            break
        yield trace._values[i]


def ref_merge_region(chunks, current, emit):
    def total():
        value = 0
        for item in current:
            value = value + item
        return value

    previous = None
    for time, value, index in heapq.merge(*chunks):
        if previous is not None and time != previous:
            emit(previous, total())
        current[index] = value
        previous = time
    if previous is not None:
        emit(previous, total())


def ref_sum_traces(traces, name="sum"):
    if not traces:
        raise SimulationError("sum_traces needs at least one trace")
    start = min(trace.start_time for trace in traces)
    out = StepTrace(name=name, initial=0.0, start_time=start)
    current = [0.0] * len(traces)
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
            hi = (trace._blocks[region].anchor if region < block_count
                  else len(trace._times))
            chunks.append(zip(trace._times[lo:hi], trace._values[lo:hi],
                              itertools.repeat(index)))
        ref_merge_region(chunks, current, out.set)
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
        rel_times, rel_values = [], []
        ref_merge_region(
            [zip(trace._blocks[region].times, trace._blocks[region].values,
                 itertools.repeat(index))
             for index, trace in enumerate(traces)],
            current,
            lambda t, v: (rel_times.append(t), rel_values.append(v)),
        )
        out.append_periodic(reference.t0, rel_times, rel_values,
                            reference.span, reference.count)
    return out


def ref_extract_template(trace, start, end):
    pairs = [(t - start, v) for t, v in ref_breakpoints(trace, start, end)
             if t > start]
    return tuple(t for t, _ in pairs), tuple(v for _, v in pairs)


def ref_windows_match(trace, start_a, start_b, span):
    if trace.value_at(start_a) != trace.value_at(start_b):
        return False
    a = [(t - start_a, v)
         for t, v in ref_breakpoints(trace, start_a, start_a + span)
         if t > start_a]
    b = [(t - start_b, v)
         for t, v in ref_breakpoints(trace, start_b, start_b + span)
         if t > start_b]
    return a == b


# -- drawing traces ----------------------------------------------------------------

UNIT = 0.125
VALUES = [0.0, 1.0, -2.5, 0.1, 3e-6, 12e-3, 7.0]


@st.composite
def trace_groups(draw):
    """Traces written in lock-step, as the recorder and accelerator do."""
    count = draw(st.integers(1, 3))
    starts = [draw(st.integers(0, 4)) for _ in range(count)]
    traces = [
        StepTrace(f"t{k}", initial=draw(st.sampled_from(VALUES)),
                  start_time=start * UNIT)
        for k, start in enumerate(starts)
    ]
    tick = max(starts)
    blocks = draw(st.integers(0, 2))
    for stretch in range(blocks + 1):
        length = draw(st.integers(0, 12))
        for trace in traces:
            for at in sorted(draw(st.lists(st.integers(tick, tick + length),
                                           max_size=8))):
                value = draw(st.sampled_from(VALUES + [None]))
                trace.set(at * UNIT, trace.current if value is None else value)
        tick += length
        if stretch == blocks:
            break
        t0 = tick + draw(st.integers(0, 2))
        span = draw(st.integers(1, 6))
        reps = draw(st.integers(1, 4))
        for trace in traces:
            rel = sorted(set(draw(st.lists(st.integers(1, span),
                                           max_size=span))))
            values = [draw(st.sampled_from(VALUES)) for _ in rel]
            if values and draw(st.booleans()):
                values[-1] = trace.current  # returns to its entry value
            trace.append_periodic(t0 * UNIT, [r * UNIT for r in rel], values,
                                  span * UNIT, reps)
        tick = t0 + span * reps
    if draw(st.booleans()):
        # A channel created lazily, after everything above.
        late = StepTrace("late", initial=0.0, start_time=tick * UNIT)
        late.set((tick + 1) * UNIT, draw(st.sampled_from(VALUES)))
        traces.append(late)
    return traces, tick


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def outcome(fn, *args):
    """Float-hex result, or the exception's type and message."""
    try:
        return ("ok", hexed(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - compared between versions
        return ("raised", type(exc).__name__, str(exc))


def window_times(tick):
    """Window edges on a finer grid than the breakpoints: some land on a
    breakpoint, some inside a block's repetition."""
    return st.integers(-4, 4 * tick + 8).map(lambda q: q * UNIT / 4)


# -- the differential test ---------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bulk_reads_equal_the_per_breakpoint_reads(data):
    traces, tick = data.draw(trace_groups())
    times = window_times(tick)
    for trace in traces:
        start, end = data.draw(times), data.draw(times)
        assert outcome(trace.integral) == outcome(ref_integral, trace)
        assert outcome(trace.integral, start, end) == outcome(
            ref_integral, trace, start, end)
        for read, ref in ((trace.minimum, min), (trace.maximum, max)):
            assert outcome(read) == outcome(
                lambda: ref(ref_attained(trace)))
            assert outcome(read, start, end) == outcome(
                lambda: ref(ref_attained(trace, start, end)))
        assert outcome(lambda: list(trace.iter_breakpoints())) == outcome(
            lambda: list(ref_breakpoints(trace)))
        assert outcome(lambda: list(trace.iter_breakpoints(start, end))) == (
            outcome(lambda: list(ref_breakpoints(trace, start, end))))
        assert outcome(extract_template, trace, start, end) == outcome(
            ref_extract_template, trace, start, end)
        span = data.draw(st.integers(1, 16)) * UNIT / 4
        assert outcome(windows_match, trace, start, end, span) == outcome(
            ref_windows_match, trace, start, end, span)

    summed = outcome(lambda: sum_traces(traces).state_dict())
    assert summed == outcome(lambda: ref_sum_traces(traces).state_dict())
    assert outcome(sum_minimum, traces) == outcome(
        lambda: min(ref_attained(ref_sum_traces(traces), None, math.inf)))


def test_the_groups_reach_every_shape():
    """The strategy draws what the differential test is meant to cover."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(trace_groups())
    def look(group):
        traces, _ = group
        for trace in traces:
            for block in trace._blocks:
                seen.add("empty template" if not block.times else "block")
            if trace.start_time > 0.0:
                seen.add("late start")
        try:
            sum_traces(traces)
            seen.add("summed")
        except Exception:  # noqa: BLE001 - either outcome is a shape
            seen.add("sum raised")

    look()
    assert seen == {"empty template", "block", "late start", "summed",
                    "sum raised"}
