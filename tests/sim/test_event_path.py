"""The stepped node event path against plain reference implementations.

Each shortcut on the per-event path — the CRC table, the byte-to-bits
table, ``list.count`` mark density, the single cell read per
``PicoCube._update``, handle-free process resumes and the inlined
recorder write — must reproduce, bit for bit, what the straightforward
code computes.  The references live here so the program keeps one
implementation of each.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.net.framing import ones_fraction
from repro.net.packet import MAX_PAYLOAD_WORDS, PicoPacket, crc8
from repro.sim.clock import PeriodicTimer
from repro.sim.engine import Engine
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
    calls = []
    battery_current = node.train.battery_current
    solve = node.train.solve

    def spy_pass_1(v_battery, *currents):
        i_battery = battery_current(v_battery, *currents)
        calls.append(("battery_current", v_battery, i_battery))
        return i_battery

    def spy_pass_2(v_battery, loads):
        solution = solve(v_battery, loads)
        calls.append(("solve", v_battery, solution.i_battery))
        return solution

    node.train.battery_current = spy_pass_1
    node.train.solve = spy_pass_2
    for i_rf in (0.0, 2e-3, 0.0):
        node.train.enable_radio()
        i_before = node.battery_current_now
        calls.clear()
        node._set_radio_rf(i_rf)
        assert not node.browned_out
        # Pass 1 asks only for the current; pass 2 is a full solve, which
        # takes its own current from battery_current.
        assert [name for name, _, _ in calls] == [
            "battery_current", "battery_current", "solve",
        ]
        (_, v1, i1), (_, v2, _) = calls[0], calls[2]
        assert v1.hex() == cell.terminal_voltage(i_before).hex()
        assert v2.hex() == cell.terminal_voltage(i1).hex()


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
