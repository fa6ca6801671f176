"""Unit and property tests for the step-function traces."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.trace import StepTrace, sum_traces


def test_initial_value_and_time():
    trace = StepTrace("p", initial=2.0, start_time=1.0)
    assert trace.current == 2.0
    assert trace.start_time == 1.0
    assert trace.value_at(1.0) == 2.0
    assert trace.value_at(100.0) == 2.0


def test_set_changes_value_right_continuously():
    trace = StepTrace("p")
    trace.set(5.0, 3.0)
    assert trace.value_at(4.999) == 0.0
    assert trace.value_at(5.0) == 3.0
    assert trace.value_at(6.0) == 3.0


def test_set_same_time_overwrites():
    trace = StepTrace("p")
    trace.set(5.0, 3.0)
    trace.set(5.0, 7.0)
    assert trace.value_at(5.0) == 7.0
    assert len(trace) == 2


def test_redundant_set_is_compacted():
    trace = StepTrace("p", initial=1.0)
    trace.set(5.0, 1.0)
    assert len(trace) == 1


def test_overwrite_back_to_previous_value_collapses_breakpoint():
    trace = StepTrace("p", initial=1.0)
    trace.set(5.0, 3.0)
    trace.set(5.0, 1.0)
    assert len(trace) == 1
    assert trace.value_at(10.0) == 1.0


def test_set_in_past_rejected():
    trace = StepTrace("p")
    trace.set(5.0, 1.0)
    with pytest.raises(SimulationError):
        trace.set(4.0, 2.0)


def test_query_before_start_rejected():
    trace = StepTrace("p", start_time=10.0)
    with pytest.raises(SimulationError):
        trace.value_at(5.0)


def test_add_increments_current_value():
    trace = StepTrace("p", initial=1.0)
    trace.add(2.0, 0.5)
    trace.add(3.0, -0.25)
    assert trace.value_at(2.5) == 1.5
    assert trace.value_at(3.5) == 1.25


def test_integral_of_constant():
    trace = StepTrace("p", initial=2.0)
    assert trace.integral(0.0, 10.0) == pytest.approx(20.0)


def test_integral_of_steps():
    trace = StepTrace("p", initial=0.0)
    trace.set(1.0, 5.0)
    trace.set(3.0, 1.0)
    # 0*1 + 5*2 + 1*7 over [0, 10]
    assert trace.integral(0.0, 10.0) == pytest.approx(17.0)


def test_integral_partial_window():
    trace = StepTrace("p", initial=0.0)
    trace.set(1.0, 5.0)
    trace.set(3.0, 1.0)
    # [2, 4]: 5*1 + 1*1
    assert trace.integral(2.0, 4.0) == pytest.approx(6.0)


def test_integral_zero_span():
    trace = StepTrace("p", initial=2.0)
    assert trace.integral(4.0, 4.0) == 0.0


def test_integral_reversed_bounds_rejected():
    trace = StepTrace("p")
    with pytest.raises(SimulationError):
        trace.integral(5.0, 1.0)


def test_mean():
    trace = StepTrace("p", initial=0.0)
    trace.set(5.0, 10.0)
    assert trace.mean(0.0, 10.0) == pytest.approx(5.0)


def test_mean_zero_span_rejected():
    trace = StepTrace("p")
    with pytest.raises(SimulationError):
        trace.mean(1.0, 1.0)


def test_integral_window_before_start_rejected():
    """Regression: a t=0 window on a trace recorded from t=10 used to be
    silently truncated to [10, end], corrupting window averages."""
    trace = StepTrace("p", initial=2.0, start_time=10.0)
    with pytest.raises(SimulationError):
        trace.integral(0.0, 20.0)


def test_mean_window_before_start_rejected():
    trace = StepTrace("p", initial=2.0, start_time=10.0)
    with pytest.raises(SimulationError):
        trace.mean(0.0, 20.0)


def test_integral_window_at_start_is_exact():
    trace = StepTrace("p", initial=2.0, start_time=10.0)
    assert trace.integral(10.0, 20.0) == pytest.approx(20.0)
    assert trace.integral() == pytest.approx(0.0)  # default full span
    assert trace.mean(10.0, 20.0) == pytest.approx(2.0)


def test_set_after_collapse_cannot_rewrite_history():
    """Regression: overwriting a breakpoint back to its predecessor's
    value pops it, moving _times[-1] backwards — a later set() at an
    intermediate time used to be accepted and rewrote recorded history."""
    trace = StepTrace("p", initial=0.0)
    trace.set(10.0, 5.0)
    trace.set(10.0, 0.0)  # collapses back to the single t=0 breakpoint
    assert len(trace) == 1
    with pytest.raises(SimulationError):
        trace.set(3.0, 7.0)
    # The recorded history is untouched.
    assert trace.value_at(5.0) == 0.0


def test_set_at_frontier_after_collapse_still_allowed():
    trace = StepTrace("p", initial=0.0)
    trace.set(10.0, 5.0)
    trace.set(10.0, 0.0)
    trace.set(10.0, 4.0)  # the collapsed time itself is still writable
    assert trace.value_at(9.0) == 0.0
    assert trace.value_at(10.0) == 4.0
    trace.add(12.0, 1.0)
    assert trace.current == 5.0


def test_max_min_over_window():
    trace = StepTrace("p", initial=1.0)
    trace.set(1.0, 9.0)
    trace.set(2.0, 4.0)
    assert trace.maximum(0.0, 3.0) == 9.0
    assert trace.minimum(0.0, 3.0) == 1.0
    assert trace.maximum(1.5, 3.0) == 9.0  # value from t=1 still holds at 1.5
    assert trace.minimum(2.0, 3.0) == 4.0


def test_sample():
    trace = StepTrace("p", initial=0.0)
    trace.set(1.0, 2.0)
    assert trace.sample([0.5, 1.0, 1.5]) == [0.0, 2.0, 2.0]


def test_breakpoints_round_trip():
    trace = StepTrace("p", initial=0.0)
    trace.set(1.0, 2.0)
    trace.set(4.0, 3.0)
    assert trace.breakpoints() == [(0.0, 0.0), (1.0, 2.0), (4.0, 3.0)]


def test_sum_traces_pointwise():
    a = StepTrace("a", initial=1.0)
    b = StepTrace("b", initial=2.0)
    a.set(1.0, 5.0)
    b.set(2.0, 0.0)
    total = sum_traces([a, b])
    assert total.value_at(0.5) == 3.0
    assert total.value_at(1.5) == 7.0
    assert total.value_at(2.5) == 5.0


def test_sum_traces_empty_rejected():
    with pytest.raises(SimulationError):
        sum_traces([])


def test_sum_traces_with_offset_start_times():
    a = StepTrace("a", initial=1.0, start_time=0.0)
    b = StepTrace("b", initial=4.0, start_time=5.0)
    total = sum_traces([a, b])
    assert total.value_at(1.0) == 1.0
    assert total.value_at(6.0) == 5.0


# -- sum_traces cross-check against the reference implementation -------------


def reference_sum_traces(traces, name="sum"):
    """The seed implementation: re-query every trace at every breakpoint.

    Kept verbatim as the executable specification for the k-way merge;
    O(B * n log B), correct by construction.
    """
    start = min(trace.start_time for trace in traces)
    out = StepTrace(name=name, initial=0.0, start_time=start)
    times = sorted({t for trace in traces for t, _ in trace.breakpoints()})

    def value_before_start(trace, t):
        if t < trace.start_time:
            return 0.0
        return trace.value_at(t)

    for t in times:
        out.set(t, sum(value_before_start(trace, t) for trace in traces))
    return out


def random_trace(rng, name, max_points=40):
    trace = StepTrace(
        name, initial=rng.uniform(-5.0, 5.0), start_time=rng.uniform(0.0, 20.0)
    )
    time = trace.start_time
    for _ in range(rng.randrange(max_points)):
        time += rng.choice([0.0, rng.uniform(0.001, 3.0)])
        trace.set(time, rng.choice([0.0, trace.current, rng.uniform(-5.0, 5.0)]))
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_sum_traces_matches_reference_randomized(seed):
    rng = random.Random(seed)
    traces = [
        random_trace(rng, f"t{k}") for k in range(rng.randrange(1, 9))
    ]
    fast = sum_traces(traces)
    slow = reference_sum_traces(traces)
    # Bit-identical breakpoints: same times, same IEEE float values.
    assert fast.breakpoints() == slow.breakpoints()
    end = max(t.last_time for t in traces) + 1.0
    assert fast.integral(fast.start_time, end) == slow.integral(
        slow.start_time, end
    )
    probes = [fast.start_time + k * (end - fast.start_time) / 17 for k in range(18)]
    assert fast.sample(probes) == slow.sample(probes)


def test_sum_traces_single_trace_is_identity():
    a = StepTrace("a", initial=3.0, start_time=2.0)
    a.set(4.0, 1.0)
    total = sum_traces([a])
    assert total.breakpoints() == a.breakpoints()


def test_sum_traces_all_late_starts():
    a = StepTrace("a", initial=1.0, start_time=10.0)
    b = StepTrace("b", initial=2.0, start_time=30.0)
    total = sum_traces([a, b])
    assert total.start_time == 10.0
    assert total.value_at(10.0) == 1.0
    assert total.value_at(30.0) == 3.0
    with pytest.raises(SimulationError):
        total.value_at(5.0)


def test_sum_traces_disjoint_activity_windows():
    # a's activity ends before b's begins; the sum must hold a's final
    # value through the gap, then add b's contribution.
    a = StepTrace("a", initial=0.0)
    a.set(1.0, 4.0)
    a.set(2.0, 0.0)
    b = StepTrace("b", initial=0.0, start_time=50.0)
    b.set(60.0, 7.0)
    total = sum_traces([a, b])
    assert total.value_at(1.5) == 4.0
    assert total.value_at(25.0) == 0.0
    assert total.value_at(60.0) == 7.0
    assert total.integral(0.0, 100.0) == pytest.approx(4.0 + 7.0 * 40.0)


def test_sum_traces_coincident_breakpoints_last_write_wins():
    a = StepTrace("a", initial=0.0)
    b = StepTrace("b", initial=0.0)
    a.set(5.0, 2.0)
    b.set(5.0, 3.0)
    total = sum_traces([a, b])
    assert total.value_at(4.999) == 0.0
    assert total.value_at(5.0) == 5.0
    assert len(total) == 2  # one merged breakpoint at t=5


# -- property-based tests ----------------------------------------------------

steps = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    ),
    min_size=0,
    max_size=20,
)


def build(step_list):
    trace = StepTrace("p", initial=0.0)
    time = 0.0
    for dt, value in step_list:
        time += dt
        trace.set(time, value)
    return trace, time


@given(steps)
def test_property_integral_additivity(step_list):
    """integral(a,c) == integral(a,b) + integral(b,c) for any split."""
    trace, end = build(step_list)
    end = end + 1.0
    mid = end / 2.0
    whole = trace.integral(0.0, end)
    split = trace.integral(0.0, mid) + trace.integral(mid, end)
    assert whole == pytest.approx(split, rel=1e-9, abs=1e-9)


@given(steps)
def test_property_integral_bounded_by_extremes(step_list):
    """min*T <= integral <= max*T."""
    trace, end = build(step_list)
    end = end + 1.0
    lo = trace.minimum(0.0, end)
    hi = trace.maximum(0.0, end)
    integral = trace.integral(0.0, end)
    assert lo * end - 1e-6 <= integral <= hi * end + 1e-6


@given(steps)
def test_property_mean_between_extremes(step_list):
    trace, end = build(step_list)
    end = end + 1.0
    mean = trace.mean(0.0, end)
    assert trace.minimum(0.0, end) - 1e-9 <= mean <= trace.maximum(0.0, end) + 1e-9


@given(steps, steps)
def test_property_sum_integral_is_integral_of_sum(list_a, list_b):
    a, end_a = build(list_a)
    b, end_b = build(list_b)
    end = max(end_a, end_b) + 1.0
    total = sum_traces([a, b])
    lhs = total.integral(0.0, end)
    rhs = a.integral(0.0, end) + b.integral(0.0, end)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


# Interleaved set/add operations, with dt=0 steps allowed so several
# writes can land on the same instant (the supply-rail pattern that
# exposed the collapse bug).
operations = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 1.0]),  # dt (0 -> same-time write)
        st.sampled_from(["set", "add"]),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]),
    ),
    min_size=0,
    max_size=25,
)


def apply_operations(op_list, initial=1.0):
    """Drive a StepTrace and an oracle history in lockstep.

    The oracle is the defining semantics: after all writes, the value on
    ``[t_k, t_{k+1})`` is whatever the *last* write at or before ``t_k``
    left behind.
    """
    trace = StepTrace("p", initial=initial)
    history = [(0.0, initial)]
    time = 0.0
    current = initial
    for dt, op, value in op_list:
        time += dt
        current = value if op == "set" else current + value
        if op == "set":
            trace.set(time, value)
        else:
            trace.add(time, value)
        history.append((time, current))
    return trace, history, time


def oracle_value_at(history, query):
    value = history[0][1]
    for t, v in history:
        if t <= query:
            value = v
        else:
            break
    return value


@given(operations)
def test_property_interleaved_set_add_matches_oracle(op_list):
    trace, history, end = apply_operations(op_list)
    probes = sorted({t for t, _ in history} | {end + 0.5, end + 1.0})
    for query in probes:
        assert trace.value_at(query) == oracle_value_at(history, query)


@given(operations)
def test_property_interleaved_integral_matches_oracle(op_list):
    trace, history, end = apply_operations(op_list)
    end += 1.0
    times = sorted({t for t, _ in history} | {end})
    expected = sum(
        oracle_value_at(history, t0) * (t1 - t0)
        for t0, t1 in zip(times, times[1:])
    )
    assert trace.integral(0.0, end) == pytest.approx(expected, abs=1e-9)


@given(operations)
def test_property_trace_is_always_compact_and_monotone(op_list):
    trace, _, _ = apply_operations(op_list)
    points = trace.breakpoints()
    times = [t for t, _ in points]
    values = [v for _, v in points]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    # Compaction invariant: no breakpoint repeats its predecessor.
    assert all(a != b for a, b in zip(values, values[1:]))
