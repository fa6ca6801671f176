"""Tests for PeriodicTimer, Process, and PowerRecorder."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.clock import PeriodicTimer
from repro.sim.engine import Engine
from repro.sim.process import spawn
from repro.sim.recorder import PowerRecorder


# -- PeriodicTimer -----------------------------------------------------------


def test_timer_fires_every_period():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 6.0, lambda: ticks.append(engine.now))
    timer.start()
    engine.run_until(30.0)
    assert ticks == [6.0, 12.0, 18.0, 24.0, 30.0]
    assert timer.fired_count == 5


def test_timer_first_delay_override():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
    timer.start(first_delay=1.0)
    engine.run_until(25.0)
    assert ticks == [1.0, 11.0, 21.0]


def test_timer_stop_from_callback_sticks():
    engine = Engine()
    ticks = []

    def on_tick():
        ticks.append(engine.now)
        if len(ticks) == 2:
            timer.stop()

    timer = PeriodicTimer(engine, 5.0, on_tick)
    timer.start()
    engine.run_until(100.0)
    assert ticks == [5.0, 10.0]
    assert not timer.running


def test_timer_no_drift_over_many_ticks():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 0.1, lambda: ticks.append(engine.now))
    timer.start()
    engine.run_until(100.0)
    assert len(ticks) == 1000
    # Absolute-time arithmetic: the 1000th tick is exactly 100.0.
    assert ticks[-1] == pytest.approx(100.0, abs=1e-9)


def test_timer_invalid_period_rejected():
    with pytest.raises(ConfigurationError):
        PeriodicTimer(Engine(), 0.0, lambda: None)


def test_timer_double_start_rejected():
    timer = PeriodicTimer(Engine(), 1.0, lambda: None)
    timer.start()
    with pytest.raises(ConfigurationError):
        timer.start()


def test_timer_restart_after_stop():
    engine = Engine()
    ticks = []
    timer = PeriodicTimer(engine, 1.0, lambda: ticks.append(engine.now))
    timer.start()
    engine.run_until(2.0)
    timer.stop()
    engine.run_until(5.0)
    timer.start()
    engine.run_until(7.0)
    assert ticks == [1.0, 2.0, 6.0, 7.0]


# -- Process ----------------------------------------------------------------


def test_process_sequential_delays():
    engine = Engine()
    marks = []

    def body():
        marks.append(("a", engine.now))
        yield 1.5
        marks.append(("b", engine.now))
        yield 2.5
        marks.append(("c", engine.now))

    proc = spawn(engine, body())
    engine.run_until(10.0)
    assert marks == [("a", 0.0), ("b", 1.5), ("c", 4.0)]
    assert proc.finished


def test_process_start_delay():
    engine = Engine()
    marks = []

    def body():
        marks.append(engine.now)
        yield 0.0

    spawn(engine, body(), delay=3.0)
    engine.run_until(10.0)
    assert marks == [3.0]


def test_process_negative_yield_rejected():
    engine = Engine()

    def body():
        yield -1.0

    spawn(engine, body())
    with pytest.raises(SimulationError):
        engine.run_until(1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_process_non_finite_yield_rejected(delay):
    engine = Engine()
    resumed = []

    def body():
        yield delay
        resumed.append(engine.now)

    proc = spawn(engine, body())
    with pytest.raises(SimulationError, match="non-finite"):
        engine.run_until(1.0)
    assert proc.finished
    assert engine.pending_count == 0
    engine.run_until(2.0)
    assert resumed == []


def test_process_bad_yield_type_rejected():
    engine = Engine()

    def body():
        yield "nope"

    spawn(engine, body())
    with pytest.raises(SimulationError):
        engine.run_until(1.0)


def test_process_double_start_rejected():
    engine = Engine()

    def body():
        yield 1.0

    proc = spawn(engine, body())
    with pytest.raises(SimulationError):
        proc.start()


# -- PowerRecorder -----------------------------------------------------------


def test_recorder_energy_single_channel():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("mcu", 1.0e-3)
    engine.run_until(10.0)
    rec.record("mcu", 0.0)
    assert rec.energy("mcu") == pytest.approx(10.0e-3)


def test_recorder_average_power_mixed_channels():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("sleep", 4e-6)  # always-on 4 uW
    engine.schedule(5.0, lambda: rec.record("radio", 2e-3))
    engine.schedule(5.0 + 0.01, lambda: rec.record("radio", 0.0))
    engine.run_until(10.0)
    expected = (4e-6 * 10.0 + 2e-3 * 0.01) / 10.0
    assert rec.average_power() == pytest.approx(expected)


def test_recorder_breakdown_sorted_descending():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("small", 1e-6)
    rec.record("big", 1e-3)
    engine.run_until(1.0)
    breakdown = rec.energy_breakdown()
    names = list(breakdown)
    assert names[0] == "big"
    assert breakdown["big"] == pytest.approx(1e-3)


def test_recorder_unknown_channel_rejected():
    rec = PowerRecorder(Engine())
    with pytest.raises(SimulationError):
        rec.energy("ghost")


def test_recorder_profile_rows():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("a", 1.0)
    engine.schedule(2.0, lambda: rec.record("a", 3.0))
    engine.schedule(4.0, lambda: rec.record("b", 5.0))
    engine.run_until(10.0)
    rows = rec.profile(0.0, 5.0)
    times = [t for t, _ in rows]
    assert times == [0.0, 2.0, 4.0]
    assert rows[1][1] == {"a": 3.0, "b": 0.0}
    assert rows[2][1] == {"a": 3.0, "b": 5.0}


def test_recorder_total_trace_sums_channels():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("a", 1.0)
    rec.record("b", 2.0)
    engine.run_until(1.0)
    assert rec.total_trace().value_at(0.5) == pytest.approx(3.0)


def test_recorder_average_power_window():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("a", 2.0)
    engine.run_until(4.0)
    assert rec.average_power(1.0, 3.0) == pytest.approx(2.0)


def test_recorder_zero_span_average_rejected():
    engine = Engine()
    rec = PowerRecorder(engine)
    rec.record("a", 2.0)
    with pytest.raises(SimulationError):
        rec.average_power(1.0, 1.0)
