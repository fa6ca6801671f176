"""Per-layer microbenchmarks of the stepped node event path (not a paper experiment).

Every stepped wake cycle of a node goes through the same few layers:
the cycle handler's dispatch of its steps, ``PicoCube._update`` (one cell read,
a battery-current pass and one scalar solve, a recorder write for
power management and for each subsystem whose power changed), the
recorder itself, and the frame bits of the packet on air.  Timing each
alone shows which layer a change to the end-to-end node numbers came
from.
"""

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.net.framing import ones_fraction
from repro.net.packet import encode_tpms_reading
from repro.sim.engine import Engine
from repro.sim.recorder import PowerRecorder

STEPS = 50_000


def _idle():
    pass


def test_perf_cycle_step_dispatch(benchmark):
    """The wake-cycle handler walking a 50k-step table of idle steps."""
    node = PicoCube(NodeConfig())
    node._build_cycle()

    def end():
        node._cycle_active = False
        return True

    steps = [(_idle, 1e-3)] * STEPS + [(end, 0.0)]

    def run():
        node._cycle_steps = steps
        engine = node.engine = Engine()
        engine.schedule(0.0, node._on_wake_interrupt, name="wake")
        engine.run_to_completion(max_events=STEPS + 2)
        return engine

    engine = benchmark(run)
    assert not node._cycle_active
    # The wake, the cycle's start and one event per wait.
    assert engine.events_fired == STEPS + 2


def test_perf_node_update(benchmark):
    """One ``PicoCube._update`` on the COTS TPMS node, radio on."""
    node = PicoCube(NodeConfig(power_train="cots"))
    node.train.enable_radio()
    node._i_radio_digital = node.tx.i_digital
    benchmark(node._update)
    assert not node.browned_out
    assert node.battery_current_now > 0.0
    assert node.recorder.channel_names() == [
        "mcu", "power-management", "radio-digital", "radio-rf", "sensor",
    ]


def test_perf_recorder_five_records(benchmark):
    """Five channel writes at one instant: the most one ``_update`` makes."""
    engine = Engine()
    recorder = PowerRecorder(engine)
    channels = ("mcu", "sensor", "radio-digital", "radio-rf", "power-management")
    engine.run_until(1.0)

    def run():
        for watts, channel in enumerate(channels):
            recorder.record(channel, 1e-6 * watts)

    benchmark(run)
    assert recorder.channel_names() == sorted(channels)
    assert recorder.channel("sensor").value_at(1.0) == 1e-6


def test_perf_frame_bits(benchmark):
    """``to_bits`` plus ``ones_fraction`` of one TPMS frame."""
    packet = encode_tpms_reading(
        1, 7, pressure_psi=32.0, temperature_c=25.0, acceleration_g=0.0,
        supply_v=2.2,
    )

    def run():
        return ones_fraction(packet.to_bits())

    density = benchmark(run)
    assert 0.0 < density < 1.0
    assert density == sum(packet.to_bits()) / (8 * len(packet.to_bytes()))
