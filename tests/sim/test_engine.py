"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import PRIORITY_MEASURE, PRIORITY_SUPPLY


def test_initial_time_defaults_to_zero():
    assert Engine().now == 0.0


def test_initial_time_can_be_set():
    assert Engine(start_time=5.0).now == 5.0


def test_schedule_and_step_advances_time():
    engine = Engine()
    fired = []
    engine.schedule(2.5, lambda: fired.append(engine.now))
    assert engine.step()
    assert fired == [2.5]
    assert engine.now == 2.5


def test_step_on_empty_queue_returns_false():
    engine = Engine()
    assert not engine.step()
    assert engine.now == 0.0


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(3.0, lambda: order.append("c"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(2.0, lambda: order.append("b"))
    engine.run_to_completion()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_by_priority_then_fifo():
    engine = Engine()
    order = []
    engine.schedule(1.0, lambda: order.append("normal-1"))
    engine.schedule(1.0, lambda: order.append("measure"), priority=PRIORITY_MEASURE)
    engine.schedule(1.0, lambda: order.append("supply"), priority=PRIORITY_SUPPLY)
    engine.schedule(1.0, lambda: order.append("normal-2"))
    engine.run_to_completion()
    assert order == ["supply", "normal-1", "normal-2", "measure"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SchedulingError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    engine = Engine(start_time=10.0)
    with pytest.raises(SchedulingError):
        engine.schedule_at(5.0, lambda: None)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_delay_rejected(delay):
    engine = Engine()
    with pytest.raises(SchedulingError, match="finite"):
        engine.schedule(delay, lambda: None, name="bad")
    assert engine.pending_count == 0
    assert engine.sequence == 0


@pytest.mark.parametrize("time", [float("nan"), float("inf")])
def test_non_finite_schedule_at_rejected(time):
    engine = Engine(start_time=1.0)
    with pytest.raises(SchedulingError, match="finite"):
        engine.schedule_at(time, lambda: None, name="bad")
    assert engine.pending_count == 0
    assert not engine.step()
    assert engine.now == 1.0


@pytest.mark.parametrize("end_time", [float("nan"), float("inf")])
def test_run_until_rejects_non_finite_end_time(end_time):
    """A pending periodic timer never lets a NaN or infinite horizon
    end; ``max_events`` bounds the run in case the check is missing."""
    from repro.core.node import PicoCube

    node = PicoCube()
    node.start()
    with pytest.raises(SchedulingError, match="finite"):
        node.engine.run_until(end_time, max_events=50)
    assert node.engine.now == 0.0
    assert node.cycles_completed == 0


def test_run_until_is_inclusive_of_end_time():
    engine = Engine()
    fired = []
    engine.schedule(5.0, lambda: fired.append("edge"))
    engine.run_until(5.0)
    assert fired == ["edge"]
    assert engine.now == 5.0


def test_run_until_advances_now_past_queue_drain():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run_until(100.0)
    assert engine.now == 100.0


def test_run_until_leaves_future_events_pending():
    engine = Engine()
    fired = []
    engine.schedule(10.0, lambda: fired.append("late"))
    engine.run_until(5.0)
    assert fired == []
    assert engine.pending_count == 1
    engine.run_until(20.0)
    assert fired == ["late"]


def test_run_until_backwards_rejected():
    engine = Engine(start_time=10.0)
    with pytest.raises(SchedulingError):
        engine.run_until(5.0)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    engine.run_until(10.0)
    assert fired == []
    assert not handle.pending


def test_zero_delay_event_fires_at_current_instant():
    engine = Engine()
    times = []

    def outer():
        engine.schedule(0.0, lambda: times.append(engine.now))

    engine.schedule(2.0, outer)
    engine.run_until(10.0)
    assert times == [2.0]


def test_events_scheduled_during_run_are_honoured():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(1.0, lambda: order.append("child"))

    engine.schedule(1.0, first)
    engine.schedule(3.0, lambda: order.append("last"))
    engine.run_to_completion()
    assert order == ["first", "child", "last"]


def test_max_events_guard_trips_on_zero_delay_loop():
    engine = Engine()

    def loop():
        engine.schedule(0.0, loop)

    engine.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        engine.run_until(1.0, max_events=100)


def test_events_fired_counter():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i + 1), lambda: None)
    engine.run_to_completion()
    assert engine.events_fired == 5


def test_next_event_time_skips_cancelled():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    assert engine.next_event_time() == 2.0


def test_next_event_time_none_when_idle():
    assert Engine().next_event_time() is None


def test_reentrant_run_until_rejected():
    engine = Engine()

    def body():
        engine.run_until(10.0)

    engine.schedule(1.0, body)
    with pytest.raises(SimulationError):
        engine.run_until(5.0)


def test_handle_reports_time_and_name():
    engine = Engine()
    handle = engine.schedule(4.0, lambda: None, name="wake")
    assert handle.time == 4.0
    assert handle.name == "wake"


# -- exact max_events semantics ----------------------------------------------


def test_run_until_allows_exactly_max_events():
    """Regression: the guard used to trip one event early, so a budget of
    N could only ever fire N-1 callbacks."""
    engine = Engine()
    fired = []
    for i in range(5):
        engine.schedule(float(i + 1), lambda i=i: fired.append(i))
    engine.run_until(10.0, max_events=5)
    assert fired == [0, 1, 2, 3, 4]
    assert engine.now == 10.0


def test_run_until_raises_past_max_events_with_exact_count():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.schedule(float(i + 1), lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        engine.run_until(10.0, max_events=4)
    assert fired == [0, 1, 2, 3]  # exactly the budget, not one fewer
    assert engine.events_fired == 4


def test_run_until_max_events_ignores_events_beyond_window():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(50.0, lambda: None)  # due after end_time: not counted
    engine.run_until(10.0, max_events=1)
    assert engine.events_fired == 1
    assert engine.pending_count == 1


def test_run_to_completion_allows_exactly_max_events():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i + 1), lambda: None)
    engine.run_to_completion(max_events=5)
    assert engine.events_fired == 5


def test_run_to_completion_raises_past_max_events():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i + 1), lambda: None)
    with pytest.raises(SimulationError):
        engine.run_to_completion(max_events=4)
    assert engine.events_fired == 4


# -- O(1) live-event accounting ----------------------------------------------


def test_pending_count_tracks_schedule_cancel_and_fire():
    engine = Engine()
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(3)]
    assert engine.pending_count == 3
    handles[1].cancel()
    assert engine.pending_count == 2
    engine.step()
    assert engine.pending_count == 1
    engine.run_to_completion()
    assert engine.pending_count == 0


def test_cancel_twice_decrements_once():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert engine.pending_count == 1


def test_cancel_after_fire_is_noop():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.step()
    assert not handle.pending
    handle.cancel()  # must not decrement the live counter again
    assert engine.pending_count == 1


def test_callback_cancelling_own_handle_keeps_count_consistent():
    engine = Engine()
    holder = {}

    def self_cancel():
        holder["h"].cancel()

    holder["h"] = engine.schedule(1.0, self_cancel)
    engine.schedule(2.0, lambda: None)
    engine.run_to_completion()
    assert engine.pending_count == 0


def test_pending_count_with_cancelled_heap_head():
    # Cancelled entries still sit in the heap until popped; the counter
    # must not depend on when they are shed.
    engine = Engine()
    head = engine.schedule(1.0, lambda: None)
    engine.schedule(5.0, lambda: None)
    head.cancel()
    assert engine.pending_count == 1
    assert engine.next_event_time() == 5.0
    assert engine.pending_count == 1
