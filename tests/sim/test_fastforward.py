"""Unit tests for the fast-forward primitives and engine warp support.

The node-level equivalence tests (``tests/core/test_fastforward.py``)
pin the end-to-end exactness contract; these pin the building blocks:
period detection, window verification, octave arithmetic, and the
engine's clock warp.
"""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import PeriodicTimer
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.fastforward import (
    SteadyStateDetector,
    extract_template,
    max_leap_count,
    next_octave_boundary,
    windows_match,
)
from repro.sim.trace import StepTrace


# -- SteadyStateDetector ------------------------------------------------------


def feed(detector, stream):
    """Feed (time, snapshot) pairs; return the first candidate, if any."""
    for k, (time, snapshot) in enumerate(stream):
        candidate = detector.observe(time, snapshot, payload=k)
        if candidate is not None:
            return candidate
    return None


def test_detector_needs_three_equally_spaced_sightings():
    detector = SteadyStateDetector()
    assert detector.observe(0.0, "a") is None
    assert detector.observe(10.0, "a") is None  # second sighting: no proof
    candidate = detector.observe(20.0, "a")
    assert candidate is not None
    assert candidate.span == 10.0
    assert candidate.cycles_per_span == 1
    assert candidate.times == (0.0, 10.0, 20.0)


def test_detector_candidate_carries_payloads_in_order():
    detector = SteadyStateDetector()
    detector.observe(0.0, "a", payload="p0")
    detector.observe(10.0, "a", payload="p1")
    candidate = detector.observe(20.0, "a", payload="p2")
    assert candidate.payloads == ("p0", "p1", "p2")


def test_detector_rejects_unequal_time_spacing():
    detector = SteadyStateDetector()
    assert feed(detector, [(0.0, "a"), (10.0, "a"), (21.0, "a")]) is None


def test_detector_rejects_unequal_cycle_spacing():
    detector = SteadyStateDetector()
    stream = [(0.0, "a"), (5.0, "b"), (10.0, "a"), (20.0, "a")]
    # "a" seen at indices 0, 2, 3: unequal index spacing even though a
    # 10 s candidate would otherwise tempt.
    assert feed(detector, stream) is None


def test_detector_multi_cycle_period():
    """A period of several cycles (ab ab ab) is found with the right
    cycles_per_span."""
    detector = SteadyStateDetector()
    stream = [(0.0, "a"), (1.0, "b"), (6.0, "a"), (7.0, "b"), (12.0, "a")]
    candidate = feed(detector, stream)
    assert candidate is not None
    assert candidate.span == 6.0
    assert candidate.cycles_per_span == 2


def test_detector_reset_forgets_history():
    detector = SteadyStateDetector()
    detector.observe(0.0, "a")
    detector.observe(10.0, "a")
    detector.reset()
    assert detector.observations == 0
    assert detector.resets == 1
    assert detector.observe(20.0, "a") is None  # first sighting again


def test_detector_full_table_resets_instead_of_growing():
    detector = SteadyStateDetector(max_snapshots=4)
    for k in range(10):
        detector.observe(float(k), f"unique-{k}")
    assert len(detector._seen) <= 4
    assert detector.resets >= 1


def test_detector_rejects_tiny_max_snapshots():
    with pytest.raises(ValueError):
        SteadyStateDetector(max_snapshots=1)


# -- window verification ------------------------------------------------------


def periodic_trace(period=10.0, reps=5):
    trace = StepTrace("t", initial=0.0, start_time=0.0)
    for rep in range(reps):
        base = rep * period
        trace.set(base + 1.0, 2.0)
        trace.set(base + 3.0, 0.5)
        trace.set(base + 4.0, 0.0)
    return trace

def test_windows_match_on_periodic_trace():
    trace = periodic_trace()
    assert windows_match(trace, 10.0, 20.0, 10.0)


def test_windows_match_detects_value_difference():
    trace = periodic_trace(reps=3)
    trace.set(34.5, 9.0)  # extra breakpoint in the fourth repetition
    trace.set(34.6, 0.0)
    assert not windows_match(trace, 10.0, 30.0, 10.0)


def test_windows_match_detects_entry_value_difference():
    trace = StepTrace("t", initial=0.0, start_time=0.0)
    trace.set(5.0, 1.0)   # first window entered at value 0, second at 1
    assert not windows_match(trace, 0.0, 10.0, 5.0)


def test_extract_template_is_relative_and_half_open():
    trace = periodic_trace()
    rel_times, values = extract_template(trace, 10.0, 21.0)
    assert rel_times == (1.0, 3.0, 4.0, 11.0)  # bp at 21.0 in, bp at 10.0 out
    assert values == (2.0, 0.5, 0.0, 2.0)


def test_extract_template_round_trips_through_append_periodic():
    """Replaying an extracted template reproduces the stepped trace bit-
    for-bit — the heart of the leap."""
    stepped = periodic_trace(reps=6)
    rel_times, values = extract_template(stepped, 10.0, 20.0)
    replayed = periodic_trace(reps=2)
    replayed.append_periodic(20.0, rel_times, values, span=10.0, count=4)
    assert list(replayed.breakpoints()) == list(stepped.breakpoints())


# -- octave arithmetic --------------------------------------------------------


@pytest.mark.parametrize(
    "time, boundary",
    [
        (0.0, 1.0),
        (-5.0, 1.0),
        (0.3, 0.5),
        (1.0, 2.0),     # exact powers map to the *next* boundary
        (1.5, 2.0),
        (1024.0, 2048.0),
        (1500.0, 2048.0),
        (2 ** 20 + 1.0, 2.0 ** 21),
    ],
)
def test_next_octave_boundary(time, boundary):
    assert next_octave_boundary(time) == boundary


def test_max_leap_count_respects_octave():
    # From 1100 with span 100: boundary at 2048, floor((2048-1100)/100)=9.
    assert max_leap_count(1100.0, 100.0, horizon=1e9) == 9
    # From 1000 the boundary is already 1024: no whole span fits.
    assert max_leap_count(1000.0, 100.0, horizon=1e9) == 0


def test_max_leap_count_respects_horizon():
    assert max_leap_count(1100.0, 100.0, horizon=1350.0) == 2


def test_max_leap_count_never_overshoots():
    for now in (1000.0, 1234.5, 2047.0):
        for span in (0.1, 7.0, 100.0, 6000.0):
            count = max_leap_count(now, span, horizon=1e9)
            boundary = next_octave_boundary(now)
            assert now + count * span <= boundary
            # Maximal: one more span would cross (or land on) the boundary.
            assert now + (count + 1) * span >= boundary


def test_max_leap_count_degenerate_inputs():
    assert max_leap_count(100.0, 0.0, horizon=1e9) == 0
    assert max_leap_count(100.0, -1.0, horizon=1e9) == 0
    assert max_leap_count(100.0, 10.0, horizon=50.0) == 0


# -- engine warp --------------------------------------------------------------


def test_warp_translates_clock_and_pending_events():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: fired.append(engine.now))
    engine.schedule(20.0, lambda: fired.append(engine.now))
    engine.warp(100.0)
    assert engine.now == 100.0
    engine.run_to_completion()
    assert fired == [110.0, 120.0]


def test_warp_preserves_event_order_and_count():
    engine = Engine()
    order = []
    for k, delay in enumerate((5.0, 5.0, 7.0)):
        engine.schedule(delay, lambda k=k: order.append(k))
    engine.warp(1000.0)
    assert engine.pending_count == 3
    engine.run_to_completion()
    assert order == [0, 1, 2]  # FIFO at equal times survives the warp


def test_warp_rejects_negative_offset():
    engine = Engine()
    with pytest.raises(SchedulingError):
        engine.warp(-1.0)


def test_warp_hooks_fire_and_unregister():
    engine = Engine()
    offsets = []
    unregister = engine.register_warp_hook(offsets.append)
    engine.warp(50.0)
    unregister()
    engine.warp(25.0)
    assert offsets == [50.0]


def test_periodic_timer_stays_drift_free_across_warp():
    """A warped timer keeps firing at epoch + k*period in the new frame —
    exactly what replaying K cycles requires."""
    engine = Engine()
    times = []
    timer = PeriodicTimer(engine, 6.0, lambda: times.append(engine.now))
    timer.start(first_delay=6.0)
    engine.run_until(18.0)
    engine.warp(600.0)
    engine.run_until(636.0)
    assert times == [6.0, 12.0, 18.0, 624.0, 630.0, 636.0]


def test_account_replayed_events_credits_counter():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run_to_completion()
    assert engine.events_fired == 1
    engine.account_replayed_events(500)
    assert engine.events_fired == 501
    with pytest.raises(SimulationError):
        engine.account_replayed_events(-1)


def test_pending_signature_ignores_absolute_time():
    """Two engines with the same relative schedule but different clocks
    produce the same signature — snapshots must repeat across cycles."""
    def build(start):
        engine = Engine(start_time=start)
        engine.schedule(3.0, lambda: None, name="sample")
        engine.schedule(7.0, lambda: None, name="tx")
        return engine

    assert build(0.0).pending_signature() == build(12345.0).pending_signature()


def test_pending_signature_sees_cancellation():
    engine = Engine()
    engine.schedule(3.0, lambda: None, name="sample")
    handle = engine.schedule(7.0, lambda: None, name="tx")
    before = engine.pending_signature()
    handle.cancel()
    assert engine.pending_signature() != before


def test_event_is_slotted():
    event = Event(1.0, 0, 0, lambda: None, "x")
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.arbitrary = 1


def test_heap_compacts_after_mass_cancellation():
    engine = Engine()
    handles = [engine.schedule(float(k + 1), lambda: None) for k in range(256)]
    for handle in handles[:200]:
        handle.cancel()
    assert engine.pending_count == 56
    # One more schedule triggers compaction: the dead entries vanish.
    engine.schedule(1000.0, lambda: None)
    assert len(engine._heap) <= engine.pending_count + 1
    engine.run_to_completion()
    assert engine.events_fired == 57
