"""The wake cycle as it once ran: a generator process behind the engine.

``PicoCube`` runs its wake cycle as a step table walked by one handler
(``PicoCube._walk_cycle``).  Before that, the cycle was a generator
coroutine driven by a small process class; both are kept here, verbatim
in behaviour, as the reference the handler must reproduce bit for bit.
``HeapOnlyEngine`` is the engine with every continuation sent round the
event heap, the reference for in-place continuations.
"""

from repro.core.node import PicoCube
from repro.errors import SimulationError
from repro.mcu.msp430 import Mode
from repro.net.framing import ones_fraction
from repro.sim.engine import Engine

_INF = float("inf")


class ReferenceProcess:
    """Drives a generator body through the engine, one yield per step."""

    def __init__(self, engine, body, name="process"):
        self._engine = engine
        self._body = body
        self.name = name
        self.finished = False
        self._started = False

    def start(self, delay=0.0):
        if self._started:
            raise SimulationError(f"process {self.name!r} already started")
        self._started = True
        self._engine.schedule(delay, self._resume, name=f"{self.name}.start")
        return self

    def cancel(self):
        self.finished = True

    def _resume(self):
        engine = self._engine
        body = self._body
        while not self.finished:
            try:
                yielded = next(body)
            except StopIteration:
                self.finished = True
                return
            if not isinstance(yielded, (int, float)):
                self.finished = True
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported value {yielded!r}"
                )
            if not 0.0 <= yielded < _INF:
                self.finished = True
                problem = "negative" if yielded < 0 else "non-finite"
                raise SimulationError(
                    f"process {self.name!r} yielded {problem} delay {yielded}"
                )
            if not engine._resume_after(float(yielded), self._resume, self.name):
                return


class HeapOnlyEngine(Engine):
    """Every continuation round-trips the event heap, as all once did."""

    def _resume_after(self, delay, resume, name):
        self.schedule(delay, resume, name=name)
        return False


class ReferencePicoCube(PicoCube):
    """A node whose wake cycle is the generator process it once was."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cycle_process = None

    # -- the hooks the step table replaced ---------------------------------

    def _build_cycle(self):
        super()._build_cycle()
        self._cycle_process = None

    def _abort_cycle(self):
        if self._cycle_process is not None:
            self._cycle_process.cancel()
            self._cycle_process = None
        super()._abort_cycle()

    def checkpoint_safe(self):
        return not self._cycle_active and (
            self._cycle_process is None or self._cycle_process.finished
        )

    def _advance_environment(self):
        now = self.engine.now
        dt = now - self._last_env_update
        if dt > 0.0 and hasattr(self.environment, "advance"):
            self.environment.advance(dt)
        self._last_env_update = now
        ambient = self.ambient_c()
        self.battery.set_temperature(ambient)
        if not self._cycle_active:
            self._i_mcu = self.mcu.current(
                self.train.mcu_rail_voltage(), temperature_c=ambient
            )

    def _on_wake_interrupt(self):
        if self.config.sensor_kind == "tpms":
            self._on_timer_interrupt()
        else:
            self._on_motion_interrupt()

    # -- the generator cycle -----------------------------------------------

    def _on_timer_interrupt(self):
        if self._cycle_active or self.browned_out:
            return
        self._cycle_process = ReferenceProcess(
            self.engine, self._sample_cycle(), name="on-cycle"
        ).start()

    def _on_motion_interrupt(self):
        if self._cycle_active or self.browned_out:
            return
        self._cycle_process = ReferenceProcess(
            self.engine, self._motion_burst(), name="motion-burst"
        ).start()

    def _path_time(self, name):
        return self.firmware.path(name).duration(self.mcu)

    def _sample_cycle(self):
        self._cycle_active = True
        self.cycle_start_times.append(self.engine.now)
        self._advance_environment()
        self._set_mcu(Mode.ACTIVE)
        yield self.mcu.wakeup_time_s + self._path_time("wake")
        first_path = (
            "sensor-config" if self.config.sensor_kind == "tpms" else "read-xyz"
        )
        yield self._path_time(first_path)
        self._set_sensor_measuring(True)
        self._set_mcu(Mode.LPM0)
        yield self.sensor.sample_duration()
        reading = self.sensor.read(self.environment, self.engine.now)
        self._set_sensor_measuring(False)
        self._set_mcu(Mode.ACTIVE)
        if self.config.sensor_kind == "tpms":
            self.sensor.set_supply_reading(self.train.mcu_rail_voltage())
            yield self._path_time("sample-read")
        yield self._path_time("format-packet")
        packet = self._encode(reading)
        self.train.enable_radio()
        self._set_radio_digital(self.tx.i_digital)
        yield self._path_time("radio-setup") + self.spi.transfer_time(16)
        yield self.config.pa_sequencing_delay_s
        yield from self._transmit(packet)
        self._set_radio_digital(0.0)
        self.train.disable_radio()
        yield self._path_time("transmit-supervise") + self._path_time("sleep-entry")
        self._set_mcu(Mode.LPM3)
        if self.packet_filter is None or self.packet_filter(
            packet, self.engine.now
        ):
            self.packets_sent.append(packet)
        else:
            self.packets_corrupted.append(packet)
        self._seq = (self._seq + 1) & 0xFF
        self.cycles_completed += 1
        self._cycle_active = False
        if self.fast_forward is not None:
            self.fast_forward.on_cycle_complete()

    def _motion_burst(self):
        self._cycle_active = True
        while self.environment.is_moving(self.engine.now):
            self._cycle_active = False
            yield from self._sample_cycle()
            self._cycle_active = True
            yield self.config.motion_sample_interval_s
        self._cycle_active = False

    def _transmit(self, packet):
        bits = self._line_code_bits(packet)
        self._set_radio_rf(self.tx.i_rf_on)
        yield self.tx.startup_time()
        if self.config.fidelity == "profile":
            for duration, power in self.modulator.power_segments(
                bits, self.tx.p_dc_on
            ):
                self._set_radio_rf(power / self.tx.v_rf_rail)
                yield duration
        else:
            self._set_radio_rf(self.tx.ook_rf_current(ones_fraction(bits)))
            yield self.modulator.duration(len(bits))
        self._set_radio_rf(0.0)
