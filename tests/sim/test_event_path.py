"""The stepped node event path against plain reference implementations.

Each shortcut on the per-event path — the CRC table, the byte-to-bits
table, ``list.count`` mark density, the single cell read per
``PicoCube._update``, handle-free and in-place process resumes and the
inlined recorder write — must reproduce, bit for bit, what the straightforward
code computes.  The references live here so the program keeps one
implementation of each.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.core.power_train import GraphPowerTrain
from repro.errors import SimulationError
from repro.net.framing import ones_fraction
from repro.net.packet import MAX_PAYLOAD_WORDS, PicoPacket, crc8
from repro.sim.clock import PeriodicTimer
from repro.sim.engine import Engine
from repro.sim.events import PRIORITY_MEASURE, PRIORITY_NORMAL, PRIORITY_SUPPLY
from repro.sim.process import Process
from repro.sim.recorder import PowerRecorder
from repro.storage.base import EnergyStorage
from repro.storage.capacitors import CapacitorStorage
from repro.storage.nimh import NiMHCell
from repro.storage.thin_film import ThinFilmCell


def reference_crc8(data, polynomial=0x31, init=0x00):
    crc = init
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ polynomial) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


def reference_bits(data):
    return [(byte >> k) & 1 for byte in data for k in range(7, -1, -1)]


def reference_ones_fraction(bits):
    return sum(1 for b in bits if b == 1) / len(bits)


packets = st.builds(
    PicoPacket,
    node_id=st.integers(0, 0xFF),
    kind=st.integers(0, 0xFF),
    seq=st.integers(0, 0xFF),
    payload_words=st.lists(st.integers(0, 0xFFFF), max_size=MAX_PAYLOAD_WORDS),
)


# -- frame bits ----------------------------------------------------------------


@given(st.binary(max_size=64), st.integers(0, 0xFF))
def test_crc8_table_matches_bitwise_reference(data, init):
    assert crc8(data, init=init) == reference_crc8(data, init=init)


def test_crc8_every_init_on_every_byte():
    for init in range(256):
        for byte in range(256):
            assert crc8(bytes([byte]), init=init) == reference_crc8(
                bytes([byte]), init=init
            )


@given(st.binary(max_size=64), st.integers(0, 0xFF), st.integers(0, 0xFF))
def test_crc8_other_polynomials_match_reference(data, polynomial, init):
    assert crc8(data, polynomial, init) == reference_crc8(data, polynomial, init)


@pytest.mark.parametrize("init", [0x100, 0x1FF, -1, -200])
def test_crc8_out_of_range_init_matches_reference(init):
    for data in (b"", b"\x00", b"PicoCube"):
        assert crc8(data, init=init) == reference_crc8(data, init=init)


@given(packets)
def test_to_bits_and_ones_fraction_match_reference(packet):
    bits = packet.to_bits()
    assert bits == reference_bits(packet.to_bytes())
    assert all(type(bit) is int for bit in bits)
    assert ones_fraction(bits) == reference_ones_fraction(bits)


@given(st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.0, 2]), min_size=1))
def test_ones_fraction_counts_by_equality(bits):
    assert ones_fraction(bits) == reference_ones_fraction(bits)
    assert ones_fraction(tuple(bits)) == reference_ones_fraction(bits)


# -- one cell read per _update -------------------------------------------------


class _NodeStorage:
    """The two node-facing hooks a bare storage element lacks."""

    def set_temperature(self, temperature_c):
        pass

    def apply_self_discharge(self, dt):
        pass


class _NodeThinFilm(_NodeStorage, ThinFilmCell):
    pass


class _NodeCapacitor(_NodeStorage, CapacitorStorage):
    pass


def _nimh():
    cell = NiMHCell()
    cell.set_soc(0.15)  # below 20 %: the resistance depends on the SoC
    return cell


def _thin_film():
    cell = _NodeThinFilm("printed", area_m2=1e-4, thickness_m=50e-6)
    cell.set_soc(0.7)
    return cell


def _capacitor():
    cell = _NodeCapacitor(
        "supercap", capacitance=0.22, v_rated=2.5, esr=30.0, mass_grams=0.07
    )
    cell.set_soc(1.3 / 2.5)
    return cell


@pytest.mark.parametrize("make_cell", [_nimh, _thin_film, _capacitor])
def test_update_sags_equal_terminal_voltage(make_cell):
    cell = make_cell()
    assert type(cell).terminal_voltage is EnergyStorage.terminal_voltage
    node = PicoCube(NodeConfig(), battery=cell)
    train, graph = node.train, node.train.graph
    calls = []
    solve = train.solve
    solve_currents = graph._solve_currents

    def spy_solve(*args):
        solution = solve(*args)
        calls.append(("solve", solution.v_battery, solution.i_battery))
        return solution

    def spy_pass(v_battery, *rest):
        names, values = solve_currents(v_battery, *rest)
        calls.append(("pass", v_battery, values[0] * train.loss_factor))
        return names, values

    # With no promoted kernel every pass goes through _solve_currents,
    # so each pass's terminal voltage is seen; the sag arithmetic is the
    # same on the kernel path.
    graph._promoted_kernel = lambda open_gates: None
    graph._solve_currents = spy_pass
    train.solve = spy_solve
    for i_rf in (0.0, 2e-3, 0.0):
        train.enable_radio()
        i_before = node.battery_current_now
        calls.clear()
        node._set_radio_rf(i_rf)
        assert not node.browned_out
        # One train call per update, running the fixed-point pass on the
        # terminal voltage inside it.
        assert [name for name, _, _ in calls] == ["pass", "pass", "solve"]
        (_, v1, i1), (_, v2, i2), (_, v_solved, i_solved) = calls
        assert v1.hex() == cell.terminal_voltage(i_before).hex()
        assert v2.hex() == cell.terminal_voltage(i1).hex()
        assert (v_solved.hex(), i_solved.hex()) == (v2.hex(), i2.hex())
        assert node.battery_current_now.hex() == i2.hex()


def test_each_update_keeps_the_traced_entry_points(monkeypatch):
    """Each ``_update`` on a live node makes one ``GraphPowerTrain.solve``
    call, one ``NiMHCell.open_circuit_voltage`` call and at least one
    ``PowerRecorder.record`` call: the profiler counts these layers by
    wrapping them, so a bypass must fail here."""
    counts = dict.fromkeys(("solve", "ocv", "record"), 0)

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(GraphPowerTrain, "solve", "solve")
    counting(NiMHCell, "open_circuit_voltage", "ocv")
    counting(PowerRecorder, "record", "record")
    per_update = []
    update = PicoCube._update

    def counted_update(node):
        counts.update(solve=0, ocv=0, record=0)
        update(node)
        per_update.append(dict(counts))

    monkeypatch.setattr(PicoCube, "_update", counted_update)
    node = PicoCube(NodeConfig())
    node.run(60.0)
    assert not node.browned_out and node.cycles_completed > 0
    assert len(per_update) > 10
    for seen in per_update:
        assert seen["solve"] == 1 and seen["ocv"] == 1
        assert seen["record"] >= 1


# -- handle-free process resumes -----------------------------------------------


class _ScheduledProcess(Process):
    """Resumes through ``Engine.schedule``, as every resume once did."""

    def _resume(self):
        if self.finished:
            return
        try:
            yielded = next(self._body)
        except StopIteration:
            self.finished = True
            return
        self._engine.schedule(float(yielded), self._resume, name=self.name)


def _scenario(engine, process_cls, delays, timer_periods, cancels, log):
    def body(tag, steps):
        for delay in steps:
            log.append((tag, engine.now))
            yield delay
        log.append((tag, engine.now))

    for k, steps in enumerate(delays):
        process_cls(engine, body(f"p{k}", steps), name=f"p{k}").start(0.1 * k)
    for k, period in enumerate(timer_periods):
        PeriodicTimer(
            engine, period, lambda k=k: log.append((f"t{k}", engine.now)),
            name=f"t{k}",
        ).start()
    handles = [
        engine.schedule(
            0.25 * (k + 1), lambda k=k: log.append((f"e{k}", engine.now)),
            name=f"e{k}", priority=5 * (k % 3),
        )
        for k in range(len(cancels))
    ]
    for handle, cancel in zip(handles, cancels):
        if cancel:
            handle.cancel()


delay_lists = st.lists(
    st.lists(
        st.one_of(
            st.integers(0, 3),
            st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    delay_lists,
    st.lists(st.sampled_from([0.3, 0.5, 1.0]), max_size=2),
    st.lists(st.booleans(), max_size=5),
)
def test_process_resumes_queue_like_schedule(delays, timer_periods, cancels):
    engines, logs = [Engine(), Engine()], [[], []]
    for engine, cls, log in zip(engines, (Process, _ScheduledProcess), logs):
        _scenario(engine, cls, delays, timer_periods, cancels, log)
    lean, scheduled = engines
    for _ in range(60):
        assert lean.pending_events() == scheduled.pending_events()
        assert lean.pending_signature() == scheduled.pending_signature()
        assert lean.pending_count == scheduled.pending_count
        assert lean.sequence == scheduled.sequence
        fired = lean.step()
        assert fired == scheduled.step()
        assert lean.now == scheduled.now
        if not fired:
            break
    assert logs[0] == logs[1]


# -- inline process resumes ----------------------------------------------------

GRID = 0.25  # every drawn time is on this grid, so same-instant ties abound

body_steps = st.lists(
    st.one_of(
        st.integers(0, 4).map(lambda k: ("yield", k * GRID)),
        st.just(("yield", 0)),
        st.integers(1, 3).map(lambda k: ("warp", k * GRID)),
        st.tuples(
            st.just("at"), st.integers(0, 2).map(lambda k: k * GRID),
            st.sampled_from([PRIORITY_SUPPLY, PRIORITY_NORMAL, PRIORITY_MEASURE]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 3)),
        st.just(("stop",)),
    ),
    max_size=8,
)

schedules = st.fixed_dictionaries({
    "bodies": st.lists(
        st.tuples(st.integers(0, 3).map(lambda k: k * GRID), body_steps),
        min_size=1, max_size=3,
    ),
    "timers": st.lists(
        st.tuples(
            st.sampled_from([GRID, 2 * GRID, 4 * GRID]),
            st.sampled_from([PRIORITY_SUPPLY, PRIORITY_NORMAL, PRIORITY_MEASURE]),
        ),
        max_size=3,
    ),
    "one_shots": st.lists(
        st.tuples(
            st.integers(0, 8).map(lambda k: k * GRID),
            st.sampled_from([PRIORITY_SUPPLY, PRIORITY_NORMAL, PRIORITY_MEASURE]),
            st.booleans(),
        ),
        max_size=4,
    ),
    # Prefix lengths of the first body's yields: each gives an end time
    # that lands exactly on one of its resumes.
    "end_prefixes": st.lists(st.integers(0, 8), min_size=1, max_size=3),
    "end_times": st.lists(st.integers(0, 24).map(lambda k: k * GRID), max_size=2),
    "pause_every": st.one_of(st.none(), st.integers(1, 7)),
    "max_events": st.one_of(st.none(), st.integers(1, 40)),
})


def _run_schedule(process_cls, plan):
    """Drive one drawn schedule through run_until and run_to_completion.

    Returns the log (body marks, callbacks, every pause-hook consult,
    each pause and each tripped budget) and the engine's bookkeeping."""
    engine, log, processes, handles = Engine(), [], [], []

    def note(tag):
        return lambda: log.append((tag, engine.now))

    def body(k, steps):
        for step in steps:
            log.append((f"p{k}", step, engine.now))
            if step[0] == "yield":
                yield step[1]
            elif step[0] == "warp":
                engine.warp(step[1])
            elif step[0] == "at":
                handles.append(engine.schedule(
                    step[1], note(f"p{k}.at"), name=f"p{k}.at",
                    priority=step[2],
                ))
            elif step[0] == "cancel" and step[1] < len(handles):
                handles[step[1]].cancel()
            elif step[0] == "stop":
                processes[k].cancel()
        log.append((f"p{k}", "end", engine.now))

    for k, (delay, steps) in enumerate(plan["bodies"]):
        processes.append(process_cls(engine, body(k, steps), name=f"p{k}"))
        processes[k].start(delay)
    for k, (period, priority) in enumerate(plan["timers"]):
        PeriodicTimer(
            engine, period, note(f"t{k}"), name=f"t{k}", priority=priority
        ).start()
    for k, (delay, priority, cancel) in enumerate(plan["one_shots"]):
        handles.append(engine.schedule(
            delay, note(f"e{k}"), name=f"e{k}", priority=priority
        ))
        if cancel:
            handles[-1].cancel()

    def pause():
        log.append(("consult", engine.now, engine.events_fired))
        every = plan["pause_every"]
        return every is not None and engine.events_fired % every == 0

    def bookkeeping():
        return (
            engine.now, engine.events_fired, engine.sequence,
            engine.pending_events(), engine.pending_count,
        )

    start, first_yields = plan["bodies"][0][0], [
        step[1] for step in plan["bodies"][0][1] if step[0] == "yield"
    ]
    end_times = sorted(
        [start + sum(first_yields[:n]) for n in plan["end_prefixes"]]
        + plan["end_times"]
    )
    try:
        for end_time in end_times:
            if end_time < engine.now:
                continue  # a warp already carried the clock past it
            while not engine.run_until(
                end_time, max_events=plan["max_events"], pause_hook=pause
            ):
                log.append(("paused", bookkeeping()))
            log.append(("reached", bookkeeping()))
        engine.run_to_completion(max_events=plan["max_events"] or 40)
        log.append(("completed", bookkeeping()))
    except SimulationError as error:
        log.append(("overrun", type(error).__name__, bookkeeping()))
    return log, bookkeeping()


@settings(max_examples=300, deadline=None)
@given(schedules)
def test_inline_resumes_match_heap_only_resumes(plan):
    """A resume that fires in place must leave every observable exactly
    as the heap round trip does: the callback order, each pause-hook
    consult and pause, ``events_fired``, ``sequence`` and the pending
    events at every pause and end."""
    inline_log, inline_state = _run_schedule(Process, plan)
    heap_log, heap_state = _run_schedule(_ScheduledProcess, plan)
    assert inline_log == heap_log
    assert inline_state == heap_state


def test_inline_resumes_fire_no_heap_events():
    """A lone process runs every resume in place: only its start event
    goes through ``Engine.step``, yet each resume is counted."""
    engine = Engine()
    steps = []
    step = engine.step
    engine.step = lambda: steps.append(engine.now) or step()

    def body():
        for _ in range(5):
            yield 0.5

    Process(engine, body()).start()
    engine.run_until(10.0)
    assert steps == [0.0]
    assert engine.events_fired == 6 and engine.sequence == 6
    assert engine.now == 10.0


@pytest.mark.parametrize("run", ["run_until", "run_to_completion"])
def test_zero_delay_process_loop_trips_max_events(run):
    """A process stuck yielding 0 is resumed in place, so the loop would
    spin inside one callback if the inline path skipped the budget."""
    engine = Engine()

    def spin():
        while True:
            yield 0.0

    Process(engine, spin(), name="spin").start()
    with pytest.raises(SimulationError, match="max_events=25"):
        if run == "run_until":
            engine.run_until(1.0, max_events=25)
        else:
            engine.run_to_completion(max_events=25)
    assert engine.events_fired == 25
    assert engine.now == 0.0
    assert engine.pending_count == 1


# -- inlined recorder writes ---------------------------------------------------


def test_record_on_new_channel_creates_it_at_now():
    engine = Engine()
    recorder = PowerRecorder(engine)
    engine.run_until(3.0)
    recorder.record("radio-rf", 2e-3)
    trace = recorder.channel("radio-rf")
    assert trace.start_time == 3.0
    assert trace.value_at(3.0) == 2e-3
    engine.run_until(5.0)
    recorder.record("radio-rf", 0.0)
    assert recorder.channel("radio-rf") is trace
    assert recorder.energy("radio-rf") == pytest.approx(4e-3)
