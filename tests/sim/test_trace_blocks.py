"""Compressed periodic blocks in StepTrace (`append_periodic`).

A block stores one cycle template plus a repetition count and must be
*observationally identical* to the same breakpoints recorded one
``set()`` at a time — values, integrals, extremes, iteration, summation,
CSV export.  Most tests here build the trace both ways and diff.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.trace import StepTrace, sum_traces


TEMPLATE = ((1.0, 2.5, 4.0), (3.0, 0.25, 0.0))


def stepped(reps=6, period=10.0, start=0.0):
    """The reference: every breakpoint recorded explicitly."""
    trace = StepTrace("ref", initial=0.0, start_time=start)
    for rep in range(reps):
        base = start + rep * period
        for rel, value in zip(*TEMPLATE):
            trace.set(base + rel, value)
    return trace


def blocked(reps=6, period=10.0, start=0.0, head=2):
    """Same signal: ``head`` stepped repetitions, the rest one block."""
    trace = StepTrace("ref", initial=0.0, start_time=start)
    for rep in range(head):
        base = start + rep * period
        for rel, value in zip(*TEMPLATE):
            trace.set(base + rel, value)
    trace.append_periodic(
        start + head * period, TEMPLATE[0], TEMPLATE[1],
        span=period, count=reps - head,
    )
    return trace


def test_block_breakpoints_equal_stepped():
    assert list(blocked().breakpoints()) == list(stepped().breakpoints())


def test_block_value_queries_equal_stepped():
    a, b = blocked(), stepped()
    for k in range(0, 600):
        t = k * 0.1
        assert a.value_at(t) == b.value_at(t), t
    assert a.current == b.current
    assert a.last_time == b.last_time
    assert len(a) == len(b)


def test_block_integral_bit_identical():
    a, b = blocked(), stepped()
    windows = [(0.0, 60.0), (0.0, 37.3), (12.5, 51.0), (25.0, 25.1),
               (3.0, 3.0), (41.0, 60.0)]
    for start, end in windows:
        assert a.integral(start, end) == b.integral(start, end), (start, end)
        if end > start:
            assert a.mean(start, end) == b.mean(start, end)


def test_block_extremes_and_sample_equal_stepped():
    a, b = blocked(), stepped()
    assert a.maximum(0.0, 60.0) == b.maximum(0.0, 60.0)
    assert a.minimum(0.0, 60.0) == b.minimum(0.0, 60.0)
    assert a.maximum(22.0, 43.5) == b.maximum(22.0, 43.5)
    times = [k * 1.7 for k in range(35)]
    assert a.sample(times) == b.sample(times)


def test_block_iter_breakpoints_windows_equal_stepped():
    a, b = blocked(), stepped()
    for start, end in [(0.0, 60.0), (15.0, 45.0), (21.0, 24.0), (58.0, 60.0)]:
        assert list(a.iter_breakpoints(start=start, end=end)) == list(
            b.iter_breakpoints(start=start, end=end)
        ), (start, end)


def test_cursor_sequential_reads_equal_stepped():
    a, b = blocked(), stepped()
    cursor = a.cursor()
    times = [k * 0.25 for k in range(240)]
    assert [cursor.value_at(t) for t in times] == [b.value_at(t) for t in times]


def test_cursor_rejects_backwards_reads():
    cursor = blocked().cursor()
    cursor.value_at(30.0)
    with pytest.raises(SimulationError):
        cursor.value_at(29.0)


def test_compressed_flag_and_length():
    trace = blocked(reps=6, head=2)
    assert trace.compressed
    assert not stepped().compressed
    # initial bp + 2 stepped reps x 3 bps + one block of 4 reps x 3 bps
    assert len(trace) == 1 + 6 + 12
    assert len(trace) == len(stepped())


def test_set_after_block_continues_signal():
    trace = blocked()
    trace.set(61.0, 9.0)
    assert trace.value_at(60.5) == 0.0  # block tail value persists
    assert trace.value_at(61.0) == 9.0
    stepped_too = stepped()
    stepped_too.set(61.0, 9.0)
    assert list(trace.breakpoints()) == list(stepped_too.breakpoints())


def test_set_after_block_compacts_redundant_value():
    trace = blocked()
    before = len(trace)
    trace.set(61.0, 0.0)  # same as the block's final value: no new bp
    assert len(trace) == before


def test_empty_template_advances_frontier_only():
    """A constant channel through a leap gets an empty template: no
    breakpoints, but the span is claimed so history can't be rewritten."""
    trace = StepTrace("quiet", initial=1.5, start_time=0.0)
    trace.append_periodic(0.0, (), (), span=10.0, count=4)
    assert trace.value_at(35.0) == 1.5
    assert trace.integral(0.0, 40.0) == 1.5 * 40.0
    with pytest.raises(SimulationError):
        trace.set(39.0, 2.0)  # inside the claimed span
    trace.set(40.0, 2.0)


def test_append_periodic_validation():
    trace = StepTrace("v", initial=0.0, start_time=0.0)
    trace.set(5.0, 1.0)
    with pytest.raises(SimulationError):
        trace.append_periodic(4.0, (1.0,), (0.5,), span=10.0, count=2)  # past
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (1.0,), (0.5,), span=0.0, count=2)  # span
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (1.0,), (0.5,), span=10.0, count=0)  # count
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (1.0,), (0.5, 0.6), span=10.0, count=2)
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (0.0,), (0.5,), span=10.0, count=2)  # rel<=0
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (11.0,), (0.5,), span=10.0, count=2)
    with pytest.raises(SimulationError):
        trace.append_periodic(5.0, (3.0, 2.0), (0.5, 0.6), span=10.0, count=2)


def test_adjacent_blocks():
    """Back-to-back leaps: two blocks with no stepped points between."""
    trace = StepTrace("ref", initial=0.0, start_time=0.0)
    trace.append_periodic(0.0, *TEMPLATE, span=10.0, count=3)
    trace.append_periodic(30.0, *TEMPLATE, span=10.0, count=3)
    assert list(trace.breakpoints()) == list(stepped(reps=6).breakpoints())
    assert trace.integral(0.0, 60.0) == stepped(reps=6).integral(0.0, 60.0)


def test_fsum_integral_grouping_independence():
    """The compressed integral must equal the materialized one bit-for-bit
    in the accelerator's regime: the block lives inside one time octave,
    so every repetition's breakpoint spacing is the same float and the
    Dekker-scaled products feed fsum the same exact real sum.  The
    *values* can be as awkward as they like."""
    t0, span, count = 1024.0, 8.0, 100  # ends at 1824, inside [1024, 2048)
    rel = (0.5, 1.25, 5.75)
    values = (1e-7, 3.3333333333333335e-06, 2.2250738585072014e-308)
    reference = StepTrace("r", initial=1e-9, start_time=t0)
    compact = StepTrace("r", initial=1e-9, start_time=t0)
    for rep in range(count):
        for r, v in zip(rel, values):
            reference.set(t0 + rep * span + r, v)
    compact.append_periodic(t0, rel, values, span=span, count=count)
    assert list(compact.breakpoints()) == list(reference.breakpoints())
    end = t0 + span * count
    assert compact.integral(t0, end) == reference.integral(t0, end)
    assert compact.integral(t0 + 3.0, end - 0.125) == reference.integral(
        t0 + 3.0, end - 0.125
    )


def test_sum_traces_with_aligned_blocks():
    """Traces sharing block geometry sum region-by-region, and the result
    matches summing the fully materialized traces."""
    a = blocked(head=2)
    b = StepTrace("other", initial=0.5, start_time=0.0)
    for rep in range(2):
        b.set(rep * 10.0 + 6.0, 1.0)
        b.set(rep * 10.0 + 8.0, 0.5)
    b.append_periodic(20.0, (6.0, 8.0), (1.0, 0.5), span=10.0, count=4)

    b_ref = StepTrace("other", initial=0.5, start_time=0.0)
    for rep in range(6):
        b_ref.set(rep * 10.0 + 6.0, 1.0)
        b_ref.set(rep * 10.0 + 8.0, 0.5)

    total = sum_traces([a, b])
    reference = sum_traces([stepped(), b_ref])
    assert list(total.breakpoints()) == list(reference.breakpoints())
    assert total.compressed  # the sum keeps the compression


def test_sum_traces_misaligned_blocks_rejected():
    a = blocked(head=2)
    b = StepTrace("other", initial=0.0, start_time=0.0)
    b.append_periodic(15.0, (1.0,), (1.0,), span=10.0, count=4)
    with pytest.raises(SimulationError):
        sum_traces([a, b])


def test_block_repr_mentions_compression():
    assert "block" in repr(blocked())
