"""The wake cycle's step table against the generator process it replaced.

``PicoCube`` walks a step table built once per node; the reference
(``reference_cycle.ReferencePicoCube``) runs the same cycle as the
generator process it once was.  Every trace breakpoint, event count,
scheduling sequence, packet and pending event must be float-hex equal
between the two, through charger ticks, same-instant ties, resets,
brownouts, exhausted event budgets and checkpoint pauses.  The one
intended difference, a second wake interrupt at the same instant, has
its own test.
"""

import math

import pytest

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.errors import SimulationError
from repro.sensors.environment import MotionEnvironment, MotionInterval
from repro.sim.events import PRIORITY_MEASURE, PRIORITY_SUPPLY
from repro.storage.nimh import NiMHCell

from .reference_cycle import HeapOnlyEngine, ReferencePicoCube

CONFIGS = {
    "tpms-fast-nrz": NodeConfig(),
    "tpms-fast-manchester": NodeConfig(line_code="manchester"),
    "tpms-profile-nrz": NodeConfig(fidelity="profile"),
    "tpms-profile-manchester": NodeConfig(
        fidelity="profile", line_code="manchester"
    ),
    "accel-fast-nrz": NodeConfig(sensor_kind="accel"),
    "accel-profile-manchester": NodeConfig(
        sensor_kind="accel", fidelity="profile", line_code="manchester"
    ),
}
TPMS = [name for name in CONFIGS if name.startswith("tpms")]


def build(cls, config_name, engine=None, battery=None):
    config = CONFIGS[config_name]
    environment = None
    if config.sensor_kind == "accel":
        # Two bursts: the second starts after the first has ended.
        environment = MotionEnvironment(
            [MotionInterval(10.0, 11.0), MotionInterval(30.0, 30.6)]
        )
    return cls(config, engine=engine, environment=environment, battery=battery)


def fingerprint(node):
    """Everything the run left behind, floats as hex."""
    engine = node.engine
    return {
        "traces": {
            name: [(t.hex(), v.hex())
                   for t, v in node.recorder.channel(name).breakpoints()]
            for name in node.recorder.channel_names()
        },
        "now": engine.now.hex(),
        "events_fired": engine.events_fired,
        "sequence": engine.sequence,
        "pending": [(seq, t.hex(), priority, name)
                    for seq, t, priority, name in engine.pending_events()],
        "charge": node.battery.charge.hex(),
        "i_battery": node.battery_current_now.hex(),
        "sent": [p.to_bytes() for p in node.packets_sent],
        "corrupted": [p.to_bytes() for p in node.packets_corrupted],
        "cycles": node.cycles_completed,
        "starts": [t.hex() for t in node.cycle_start_times],
        "brownouts": [(b.start_s, b.end_s) for b in node.brownout_events],
        "resets": node.resets,
        "seq": node._seq,
        "safe": node.checkpoint_safe(),
    }


def assert_same(scenario, *args):
    """``scenario(cls, *args)`` returns a list of fingerprints."""
    got = scenario(PicoCube, *args)
    want = scenario(ReferencePicoCube, *args)
    assert len(got) == len(want)
    for step, (g, w) in enumerate(zip(got, want)):
        for key in w:
            assert g[key] == w[key], f"fingerprint {step}: {key} differs"
    return got


def _marker():
    pass


# -- plain runs ------------------------------------------------------------------


def charged_run(cls, config_name, engine=None):
    """Two minutes on a charger, with events tied to wake instants.

    The charger ticks every 60 s, so the 10th wake lands on a tick (the
    tick fires first); a supply-priority event at 12 s fires before that
    wake and a measure-priority one at 18 s after it, so the cycle start
    must wait for the heap there."""
    node = build(cls, config_name, engine=engine)
    node.attach_charger(lambda t: 5e-6, update_period_s=60.0)
    node.engine.schedule_at(12.0, _marker, name="m", priority=PRIORITY_SUPPLY)
    node.engine.schedule_at(18.0, _marker, name="m", priority=PRIORITY_MEASURE)
    node.engine.schedule_at(30.0, _marker, name="m", priority=PRIORITY_MEASURE)
    shots = [fingerprint(node)]
    node.run(60.0)
    shots.append(fingerprint(node))
    node.run(60.0)
    shots.append(fingerprint(node))
    return shots


@pytest.mark.parametrize("config_name", CONFIGS)
def test_cycle_matches_the_generator(config_name):
    shots = assert_same(charged_run, config_name)
    assert shots[-1]["cycles"] > 0
    if config_name in TPMS:
        assert (60.0).hex() in shots[-1]["starts"]


@pytest.mark.parametrize("config_name", CONFIGS)
def test_inline_steps_match_heap_round_trips(config_name):
    """Every in-place continuation leaves the observables a heap push and
    pop would: same counts, sequence, pending events and traces."""
    inline = charged_run(PicoCube, config_name)
    heap = charged_run(PicoCube, config_name, engine=HeapOnlyEngine())
    assert inline == heap


@pytest.mark.parametrize("config_name", TPMS)
def test_a_wake_at_the_run_end_time_splits_cleanly(config_name):
    """The 10th wake lands on the end of ``run(60.0)``: its first step
    runs there and the rest on the next run, as in one ``run(120.0)``."""
    def whole(cls, config_name):
        node = build(cls, config_name)
        node.run(120.0)
        return [fingerprint(node)]

    def split(cls, config_name):
        node = build(cls, config_name)
        node.run(60.0)
        first = fingerprint(node)
        node.run(60.0)
        return [fingerprint(node), first]

    (split_end, at_60) = assert_same(split, config_name)
    (whole_end,) = assert_same(whole, config_name)
    assert split_end == whole_end
    assert at_60["starts"][-1] == (60.0).hex()
    assert not at_60["safe"]


def test_a_quiet_cycle_runs_inside_its_wake_event():
    """Nothing else is due during a cycle, so only the wake timer's event
    goes through ``Engine.step``; every step is still counted."""
    node = PicoCube(NodeConfig())
    steps = []
    step = node.engine.step

    def counted_step():
        steps.append(node.engine.next_event_time())
        return step()

    node.engine.step = counted_step
    node.run(6.5)
    assert steps == [6.0]
    assert node.cycles_completed == 1
    # The wake, the cycle's start and its ten waits; then the next wake.
    assert node.engine.events_fired == 12 and node.engine.sequence == 13


# -- aborts ------------------------------------------------------------------------


@pytest.mark.parametrize("config_name", CONFIGS)
def test_reset_mid_cycle_matches_the_generator(config_name):
    def scenario(cls, config_name):
        node = build(cls, config_name)
        engine = node.engine
        # Mid-cycle at 6 s and 10 s (TPMS: between steps; motion: inside
        # the first burst), and again just after a cycle's start.
        for t in (6.004, 10.3, 10.30001, 12.0000061):
            engine.schedule_at(t, node.inject_reset, name="reset")
        shots = []
        for end in (6.01, 10.5, 20.0, 40.0):
            node.run_until_time(end)
            shots.append(fingerprint(node))
        return shots

    shots = assert_same(scenario, config_name)
    assert shots[-1]["resets"] == 4
    assert shots[-1]["cycles"] > 0


@pytest.mark.parametrize("recovery", [False, True])
def test_brownout_mid_cycle_matches_the_generator(recovery):
    """The cell dies during a radio burst at 480 s: the brownout aborts
    the cycle from inside its own step."""

    def scenario(cls, config_name):
        cell = NiMHCell(capacity_mah=0.05)
        cell.set_soc(0.1)
        node = cls(NodeConfig(brownout_recovery=recovery), battery=cell)
        shots = []
        for end in (480.0, 481.0, 600.0):
            node.run_until_time(end)
            shots.append(fingerprint(node))
        return shots

    shots = assert_same(scenario, "tpms-fast-nrz")
    (start, end), *rest = shots[-1]["brownouts"]
    assert 480.0 < start < 480.02
    assert (end is not None) == recovery


# -- budgets and pauses ----------------------------------------------------------


@pytest.mark.parametrize("max_events", range(1, 15))
@pytest.mark.parametrize("config_name", ["tpms-fast-nrz", "accel-profile-manchester"])
def test_max_events_running_out_mid_cycle(config_name, max_events):
    def scenario(cls, config_name, max_events):
        node = build(cls, config_name)
        node.start()
        engine = node.engine
        engine.run_until(5.99 if config_name in TPMS else 9.99)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run_until(20.0, max_events=max_events)
        shots = [fingerprint(node)]
        engine.run_until(40.0)
        shots.append(fingerprint(node))
        return shots

    assert_same(scenario, config_name, max_events)


@pytest.mark.parametrize("every", [1e-3, 6.0, 6.005, 7.5])
@pytest.mark.parametrize("config_name", ["tpms-fast-nrz", "accel-fast-nrz"])
def test_checkpoint_pauses_match_the_generator(config_name, every):
    """A checkpoint falling due between a wake and the cycle's first step
    (``every=6.0``) waits for the cycle's end, as it always did."""

    def scenario(cls, config_name, every):
        node = build(cls, config_name)
        node.attach_charger(lambda t: 5e-6, update_period_s=60.0)
        shots = []
        node.run(40.0, checkpoint_every=every,
                 on_checkpoint=lambda n: shots.append(fingerprint(n)))
        shots.append(fingerprint(node))
        return shots

    shots = assert_same(scenario, config_name, every)
    assert len(shots) > 1
    assert all(shot["safe"] for shot in shots)


# -- the step table --------------------------------------------------------------


def test_a_second_wake_interrupt_at_the_same_instant_is_skipped():
    """The cycle is in flight from the wake interrupt on, so a second
    interrupt at the same instant does not start an overlapping cycle."""
    node = PicoCube(NodeConfig())
    node.start()
    node.engine.schedule_at(1.0, node._on_wake_interrupt)
    node.engine.schedule_at(1.0, node._on_wake_interrupt)
    node.run_until_time(2.0)
    assert node.cycles_completed == 1
    assert [packet.seq for packet in node.packets_sent] == [0]
    assert list(node.cycle_start_times) == [1.0]


def test_a_second_motion_interrupt_at_the_same_instant_is_skipped():
    node = build(PicoCube, "accel-fast-nrz")
    node.engine.schedule_at(10.0, node._on_wake_interrupt, name="motion-irq")
    node.run(10.5)
    starts = list(node.cycle_start_times)
    assert starts[0] == 10.0 and len(starts) == len(set(starts))
    assert [packet.seq for packet in node.packets_sent] == list(
        range(node.cycles_completed)
    )


@pytest.mark.parametrize("config_name", CONFIGS)
def test_steps_run_at_their_cumulative_delays(config_name):
    """The first step runs at the wake instant; each next one after the
    previous step's delay, as a left fold of the table's delays."""
    node = build(PicoCube, config_name)
    node.start()
    times = []

    table = [
        ((lambda action=action: times.append(node.engine.now) or action()),
         delay)
        for action, delay in node._cycle_steps
    ]
    node._cycle_steps[:] = table
    wake = 6.0 if config_name in TPMS else 10.0
    node.run_until_time(wake + 0.1)
    on_air = node._transmit_steps(node.packets_sent[0])
    n_head = node._cycle_tx_at
    delays = [delay for _, delay in table[:n_head]]
    delays += [delay for _, delay in on_air]
    delays += [delay for _, delay in table[n_head:]]
    expected, t = [], wake
    for k, delay in enumerate(delays):
        if k < n_head or k >= n_head + len(on_air):
            expected.append(t)
        t += delay
    assert times[:len(expected)] == expected
    assert node.cycle_start_times[0] == wake


@pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf, -math.inf, "nope"])
def test_step_table_refuses_a_delay_that_is_not_finite_and_non_negative(bad):
    node = PicoCube(NodeConfig())
    node.sensor.sample_duration = lambda: bad
    with pytest.raises(SimulationError, match="wake cycle step delay"):
        node.start()


@pytest.mark.parametrize("fidelity", ["fast", "profile"])
@pytest.mark.parametrize("bad", [-1e-3, math.nan])
def test_transmit_steps_refuse_a_bad_on_air_delay(fidelity, bad):
    node = PicoCube(NodeConfig(fidelity=fidelity))
    node.modulator.duration = lambda n: bad
    node.modulator.power_segments = lambda bits, p_on: [(bad, p_on)]
    with pytest.raises(SimulationError, match="wake cycle step delay"):
        node.run(6.1)
    assert node.engine.now < 6.1
