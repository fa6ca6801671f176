"""How a node's history is stored: float64 buffers, finite entries only.

``StepTrace`` breakpoints, block templates and ``PicoCube``'s cycle
starts live in ``array('d')`` buffers of 8 bytes a number.  These tests
pin what that storage promises:

* a start time, initial value, time, value, block start, span or
  template entry that is not finite is refused with
  :class:`SimulationError`, and a refused write leaves the trace intact;
* no read leaves a buffer exported, so every write after it succeeds;
* the memory per entry, measured with ``tracemalloc``;
* the checkpoint format: plain lists of floats on the way out, arrays
  again on restore.
"""

import math
import tracemalloc
from array import array

import pytest

from repro.core.builder import build_steady_tpms_node
from repro.core.profiles import capture_cycle_profile
from repro.errors import SimulationError
from repro.sim import checkpoint as cp
from repro.sim.engine import Engine
from repro.sim.fastforward import extract_template, windows_match
from repro.sim.recorder import PowerRecorder
from repro.sim.trace import StepTrace, sum_minimum, sum_traces

NAN = math.nan
INF = math.inf

#: The steady TPMS node's first leap starts at ~48 180 s and replays
#: 2 560 cycles up to the 65 536 s octave boundary.
FIRST_LEAP_S = 48180.0
AFTER_FIRST_LEAP_S = 63603.0


def compressed_trace():
    """Plain breakpoints, a periodic block, then plain breakpoints again."""
    trace = StepTrace("p", initial=0.5)
    trace.set(1.0, 2.0)
    trace.set(2.0, 0.5)
    trace.append_periodic(4.0, [1.0, 2.0], [3.0, 0.5], span=4.0, count=3)
    trace.set(17.0, 1.5)
    trace.set(18.0, 0.5)
    return trace


# -- non-finite entries ------------------------------------------------------------


@pytest.mark.parametrize("time", [NAN, INF, -INF])
def test_set_refuses_a_time_that_is_not_finite(time):
    trace = StepTrace("p")
    trace.set(1.0, 2.0)
    with pytest.raises(SimulationError, match="not finite"):
        trace.set(time, 3.0)
    # The frontier did not move: the past stays closed, the future open.
    with pytest.raises(SimulationError, match="precedes"):
        trace.set(0.5, 1.0)
    trace.set(5.0, 1.0)
    assert trace.integral(0.0, 6.0) == 1.0 * 0.0 + 4.0 * 2.0 + 1.0 * 1.0


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_set_refuses_a_value_that_is_not_finite(value):
    trace = StepTrace("p")
    trace.set(1.0, 2.0)
    with pytest.raises(SimulationError, match="not finite"):
        trace.set(3.0, value)
    with pytest.raises(SimulationError, match="not finite"):
        trace.set(1.0, value)  # an overwrite at the frontier, too
    assert trace.breakpoints() == [(0.0, 0.0), (1.0, 2.0)]
    trace.set(2.0, 1.0)  # time 3.0 was refused, so 2.0 is still open


def test_set_refuses_non_finite_entries_after_a_block():
    trace = compressed_trace()
    for time, value in ((NAN, 1.0), (INF, 1.0), (20.0, NAN), (20.0, INF)):
        with pytest.raises(SimulationError, match="not finite"):
            trace.set(time, value)
    assert trace.last_time == 18.0


@pytest.mark.parametrize("t0", [NAN, INF])
def test_append_periodic_refuses_a_start_that_is_not_finite(t0):
    trace = StepTrace("p")
    trace.set(1.0, 2.0)
    with pytest.raises(SimulationError):
        trace.append_periodic(t0, [], [], span=1.0, count=2)
    assert not trace.compressed
    with pytest.raises(SimulationError, match="precedes"):
        trace.set(0.5, 1.0)


@pytest.mark.parametrize("span", [NAN, INF, 0.0, -1.0])
def test_append_periodic_refuses_a_span_that_is_not_finite_and_positive(span):
    trace = StepTrace("p")
    trace.set(1.0, 2.0)
    with pytest.raises(SimulationError, match="span must be > 0"):
        trace.append_periodic(2.0, [], [], span=span, count=2)
    assert not trace.compressed
    with pytest.raises(SimulationError, match="precedes"):
        trace.set(0.5, 1.0)


@pytest.mark.parametrize(
    "rel, values",
    [
        ([1.0, NAN, 3.0], [1.0, 2.0, 3.0]),
        ([NAN], [1.0]),
        ([1.0, INF], [1.0, 2.0]),
        ([1.0, 2.0], [1.0, NAN]),
        ([1.0, 2.0], [INF, 1.0]),
    ],
)
def test_append_periodic_refuses_template_entries_that_are_not_finite(
        rel, values):
    trace = StepTrace("p")
    with pytest.raises(SimulationError, match="template"):
        trace.append_periodic(1.0, rel, values, span=4.0, count=2)
    assert not trace.compressed
    trace.set(0.5, 1.0)  # the frontier did not move


def test_append_periodic_refuses_a_block_that_ends_past_the_largest_float():
    trace = StepTrace("p")
    with pytest.raises(SimulationError, match="not finite"):
        trace.append_periodic(1.0, [], [], span=1e308, count=10)
    assert not trace.compressed


@pytest.mark.parametrize("field", ["initial", "start_time"])
@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_constructor_refuses_a_start_that_is_not_finite(field, bad):
    with pytest.raises(SimulationError, match="'x'.*not finite"):
        StepTrace("x", **{field: bad})


# -- reading never blocks writing --------------------------------------------------


def _read_everything(trace, recorder):
    """Every kind of read, with any lazy reader left mid-way."""
    trace.integral()
    trace.integral(0.5, 13.0)
    trace.mean(0.5, 13.0)
    trace.minimum()
    trace.maximum(3.0, 30.0)
    trace.value_at(9.0)
    trace.value_at(30.0)
    trace.sample([0.0, 5.0, 11.0])
    trace.window(4.0, 12.0)
    extract_template(trace, 4.0, 8.0)
    windows_match(trace, 4.0, 8.0, 4.0)
    trace.breakpoints()
    sum_traces([trace, trace])
    sum_minimum([trace])
    trace.state_dict()
    recorder.energy("p")
    recorder.average_power()
    recorder.total_minimum()
    recorder.total_trace()
    recorder.profile(0.0, 20.0)
    cursor = trace.cursor()
    cursor.value_at(5.0)
    pending = trace.iter_breakpoints(0.0, 100.0)
    next(pending)
    return cursor, pending


def test_reads_leave_every_trace_writable():
    engine = Engine()
    recorder = PowerRecorder(engine)
    trace = recorder.channel("p")
    trace.set(1.0, 2.0)
    trace.set(2.0, 0.5)
    trace.append_periodic(4.0, [1.0, 2.0], [3.0, 0.5], span=4.0, count=3)
    trace.set(17.0, 1.5)
    engine.warp(20.0)
    readers = _read_everything(trace, recorder)
    trace.set(21.0, 4.0)
    trace.set(21.0, 1.5)  # overwrite, collapsing the breakpoint
    trace.append_periodic(22.0, [0.5], [1.5], span=1.0, count=2)
    trace.set(25.0, 0.25)
    readers = _read_everything(trace, recorder)
    trace.set(26.0, 0.75)
    assert trace.current == 0.75
    del readers


def test_reads_leave_a_plain_trace_writable():
    trace = StepTrace("p")
    for k in range(1, 10_000):
        trace.set(k * 0.25, float(k % 7))
    pending = trace.iter_breakpoints()
    next(pending)
    trace.window(0.0, 100.0)
    trace.integral()
    trace.set(3000.0, 9.0)
    trace.append_periodic(3000.0, [1.0], [9.5], span=2.0, count=4)
    assert trace.value_at(3003.5) == 9.5


def test_reads_leave_the_cycle_starts_writable():
    node = build_steady_tpms_node(fast_forward=True)
    node.run_until_time(123.0)
    capture_cycle_profile(node, cycle_index=3)
    cp.save_checkpoint(node)
    cp.node_fingerprint(node)
    list(node.cycle_start_times[:5])
    before = len(node.cycle_start_times)
    node.run_until_time(240.0)
    assert len(node.cycle_start_times) > before
    node.cycle_start_times.append(node.engine.now)


# -- memory per entry ------------------------------------------------------------


def test_a_breakpoint_costs_at_most_24_bytes():
    count = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = StepTrace("p")
        for k in range(1, count + 1):
            trace.set(k * 0.5, k * 1e-6)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == count + 1
    assert grown / count <= 24.0, f"{grown / count:.1f} B per breakpoint"


def test_a_leap_stores_each_replayed_cycle_start_in_8_bytes():
    """Memory the node's cycle starts hold just after its first leap.

    ``tracemalloc`` runs from shortly before the leap, and the held
    memory is what it sees freed when the node drops its starts.  Each
    start is one 8-byte double, and ``array``'s growth keeps at most a
    sixteenth more in reserve; a replayed start boxed as a Python float
    held 32 bytes, which puts this run at about 14 bytes a start.
    """
    node = build_steady_tpms_node(fast_forward=True)
    node.run_until_time(FIRST_LEAP_S - 1200.0)
    tracemalloc.start()
    try:
        node.run_until_time(AFTER_FIRST_LEAP_S)
        count = len(node.cycle_start_times)
        held = tracemalloc.get_traced_memory()[0]
        node.cycle_start_times = node.cycle_start_times[:0]
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert node.fast_forward.cycles_replayed > count // 5
    assert held / count <= 8.0 * 17 / 16, f"{held / count:.2f} B per start"


# -- the checkpoint format -------------------------------------------------------


def _is_float_list(values):
    return type(values) is list and all(type(v) is float for v in values)


def test_state_dict_holds_plain_float_lists():
    state = compressed_trace().state_dict()
    assert _is_float_list(state["times"]) and _is_float_list(state["values"])
    for t0, span, count, times, values, anchor in state["blocks"]:
        assert type(t0) is float and type(span) is float
        assert type(count) is int and type(anchor) is int
        assert _is_float_list(times) and _is_float_list(values)
    assert type(state["frontier"]) is float
    restored = StepTrace.from_state_dict(state)
    assert restored.state_dict() == state
    assert type(restored._times) is array and type(restored._values) is array


def test_checkpoints_carry_lists_and_restore_arrays():
    node = build_steady_tpms_node(fast_forward=True)
    node.run_until_time(AFTER_FIRST_LEAP_S)
    checkpoint = cp.save_checkpoint(node)
    assert _is_float_list(checkpoint.node.cycle_start_times)
    for state in checkpoint.node.traces.values():
        assert _is_float_list(state["times"])
        assert all(_is_float_list(block[3]) for block in state["blocks"])

    fresh = build_steady_tpms_node(fast_forward=True)
    cp.restore_checkpoint(checkpoint, fresh)
    assert type(fresh.cycle_start_times) is array
    assert fresh.cycle_start_times == node.cycle_start_times
    compressed = 0
    for name in fresh.recorder.channel_names():
        trace = fresh.recorder.channel(name)
        assert type(trace._times) is array and type(trace._values) is array
        for block in trace._blocks:
            compressed += 1
            assert type(block.times) is array and type(block.values) is array
    assert compressed, "the run must leap"
    assert cp.node_fingerprint(fresh) == cp.node_fingerprint(node)
