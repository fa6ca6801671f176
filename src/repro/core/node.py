"""The PicoCube node: everything composed and simulated.

The functional spec (paper §3): "take a sample, process the data,
packetize the data, and transmit the packet".  This class wires the
substrates together — battery, power train, MSP430, sensor, FBAR radio,
packetizer — on the discrete-event engine, with exact energy accounting on
named recorder channels:

``mcu``, ``sensor``, ``radio-digital``, ``radio-rf``
    power delivered *to* each subsystem at its rail;
``power-management``
    everything else the battery supplies — conversion losses and
    quiescent currents, the term the paper says dominates the 6 uW.

Between events nothing changes, so battery charge is integrated lazily
and the whole tire-pressure day simulates in milliseconds.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ElectricalError, SimulationError
from ..mcu.firmware import motion_firmware, tpms_firmware
from ..mcu.msp430 import Mode, Msp430
from ..mcu.spi import SpiMaster
from ..net.framing import manchester_encode, ones_fraction
from ..net.packet import PicoPacket, encode_accel_reading, encode_tpms_reading
from ..radio.ook import OokModulator
from ..radio.transmitter import FbarTransmitter
from ..sensors.accelerometer import Sca3000
from ..sensors.environment import MotionEnvironment, MotionInterval, TireEnvironment
from ..sensors.tpms import Sp12Tpms
from ..sim.clock import PeriodicTimer
from ..sim.engine import Engine
from ..sim.recorder import PowerRecorder
from ..storage.charging import TrickleCharger
from ..storage.nimh import NiMHCell
from ..units import left_sum
from .config import NodeConfig
from .fastforward import CycleFastForward
from .power_train import check_load_currents, make_power_train


#: One wake-cycle step: its action, then the wait before the next step.
#: An action returning True ends the cycle.
_Step = Tuple[Callable[[], Optional[bool]], float]


def _idle() -> None:
    """A step that only waits (firmware running, loads unchanged)."""


def _checked_delay(delay: float) -> float:
    """A step's delay as a float; finite and ``>= 0``, or refused."""
    if not isinstance(delay, (int, float)) or not 0.0 <= delay < math.inf:
        raise SimulationError(
            f"wake cycle step delay {delay!r} must be a finite number >= 0"
        )
    return float(delay)


def check_checkpoint_every(checkpoint_every: float) -> None:
    """Reject a checkpoint period that is not finite and ``> 0``."""
    if not (math.isfinite(checkpoint_every) and checkpoint_every > 0.0):
        raise SimulationError(
            f"checkpoint_every must be finite and > 0, got "
            f"{checkpoint_every!r}"
        )


@dataclasses.dataclass
class BrownoutEvent:
    """One brownout episode: entry time and (once recovered) exit time."""

    start_s: float
    end_s: Optional[float] = None

    @property
    def ongoing(self) -> bool:
        """True while the node is still down."""
        return self.end_s is None

    def overlap_s(self, start: float, end: float) -> float:
        """Outage seconds this episode contributes to a window."""
        hi = end if self.end_s is None else min(self.end_s, end)
        return max(0.0, hi - max(self.start_s, start))


class PicoCube:
    """A simulated 1 cm^3 sensor node."""

    def __init__(
        self,
        config: Optional[NodeConfig] = None,
        engine: Optional[Engine] = None,
        environment=None,
        battery: Optional[NiMHCell] = None,
    ) -> None:
        self.config = config or NodeConfig()
        self.engine = engine or Engine()
        self.recorder = PowerRecorder(self.engine)
        if battery is None:
            # Mid-charge by default: the NiMH plateau (~1.25 V OCV) is the
            # operating point the paper's measurements correspond to.
            battery = NiMHCell()
            battery.set_soc(0.6)
        self.battery = battery
        self.train = make_power_train(self.config.power_train)
        self.mcu = Msp430(clock_hz=self.config.mcu_clock_hz)
        self.spi = SpiMaster()
        self.tx = FbarTransmitter()
        self.modulator = OokModulator(self.config.bit_rate)
        if self.config.sensor_kind == "tpms":
            self.sensor = Sp12Tpms()
            self.environment = environment or TireEnvironment()
            self.firmware, self.cycle_sequence = tpms_firmware()
        else:
            self.sensor = Sca3000()
            self.environment = environment or MotionEnvironment(
                [MotionInterval(10.0, 20.0)]
            )
            self.firmware, self.cycle_sequence = motion_firmware()
        # Mutable load currents by subsystem (at the ambient temperature).
        self.battery.set_temperature(self.ambient_c())
        self._i_mcu = self.mcu.current(
            self.train.mcu_rail_voltage(), temperature_c=self.ambient_c()
        )
        self._i_sensor = self.sensor.i_sleep
        self._i_radio_digital = 0.0
        self._i_radio_rf = 0.0
        # Battery integration state.
        self._i_battery = 0.0
        # The subsystem watts _update last recorded, by channel; cleared
        # wherever anything else writes or replaces those traces.
        self._recorded_watts: Dict[str, float] = {}
        self._last_battery_sync = self.engine.now
        self._last_env_update = self.engine.now
        # Bookkeeping.
        self.cycles_completed = 0
        self.packets_sent: List[PicoPacket] = []
        self.packets_corrupted: List[PicoPacket] = []
        self.cycle_start_times: array[float] = array("d")
        self.browned_out = False
        self.brownout_time: Optional[float] = None
        self.brownout_events: List[BrownoutEvent] = []
        self.resets = 0
        # Wake-cycle state (see _build_cycle); the token tells each
        # cycle's continuations apart, so an aborted cycle's are no-ops.
        self._cycle_active = False
        self._cycle_token = 0
        self._cycle_steps: List[_Step] = []
        self._cycle_step = 0
        self._cycle_tx_at = 0
        self._cycle_name = ""
        self._cycle_resume: Callable[[], None] = _idle
        self._reading: dict = {}
        self._packet: Optional[PicoPacket] = None
        self._started = False
        self._wake_timer: Optional[PeriodicTimer] = None
        self._recovery_timer: Optional[PeriodicTimer] = None
        self._charger: Optional[TrickleCharger] = None
        self._charge_current_fn: Optional[Callable[[float], float]] = None
        self._charger_time_invariant = False
        self._charge_timer: Optional[PeriodicTimer] = None
        # Fault-injection hooks (repro.faults): harvest derating scales the
        # charger's input; the packet filter decides per-packet delivery.
        self._harvest_derating = 1.0
        self.packet_filter: Optional[Callable[[PicoPacket, float], bool]] = None
        self._seq = 0
        # Steady-state cycle accelerator (see repro.core.fastforward);
        # None unless config.fast_forward opts in.
        self.fast_forward: Optional[CycleFastForward] = (
            CycleFastForward(self) if self.config.fast_forward else None
        )
        self.mcu.enter(Mode.LPM3)
        self._update()

    # ------------------------------------------------------------------ state

    def ambient_c(self) -> float:
        """Ambient temperature from the environment (25 C if unmodelled)."""
        return getattr(self.environment, "temperature_c", 25.0)

    def _set_mcu(self, mode: Mode) -> None:
        self.mcu.enter(mode)
        self._i_mcu = self.mcu.current(
            self.train.mcu_rail_voltage(), temperature_c=self.ambient_c()
        )
        self._update()

    def _set_sensor_measuring(self, measuring: bool) -> None:
        if measuring:
            self.sensor.begin_sample()
        else:
            self.sensor.end_sample()
        self._i_sensor = self.sensor.current()
        self._update()

    def _set_radio_digital(self, current: float) -> None:
        self._i_radio_digital = current
        self._update()

    def _set_radio_rf(self, current: float) -> None:
        self._i_radio_rf = current
        self._update()

    def _update(self) -> None:
        """Re-solve the electrical state after any load change."""
        self._sync_battery()
        if self.browned_out:
            return
        loads = (self._i_mcu, self._i_sensor, self._i_radio_digital,
                 self._i_radio_rf)
        check_load_currents(*loads)
        # One train call is the whole electrical step: a fixed-point pass
        # on the terminal voltage from the cell's one read (see
        # GraphPowerTrain.solve).
        battery = self.battery
        try:
            solution = self.train.solve(
                battery.open_circuit_voltage(), loads,
                battery.internal_resistance(), self._i_battery,
            )
        except ElectricalError:
            # The sagging battery fell out of the power train's operating
            # range: the management circuitry drops out — a brownout.
            self._enter_brownout(self.engine.now)
            return
        self._i_battery = solution.i_battery
        # Re-recording a channel's current value changes no trace, so
        # only the subsystems whose power moved are written.
        recorded = self._recorded_watts
        record = self.recorder.record
        for channel, watts in solution.subsystem_power.items():
            if recorded.get(channel) != watts:
                record(channel, watts)
                recorded[channel] = watts
        record("power-management", solution.p_management)

    def _sync_battery(self) -> None:
        """Integrate the battery drain since the last event.

        If the stored charge cannot cover the interval, the node browns
        out at the moment the battery empties: all loads drop and the
        wake source stops.  Without ``config.brownout_recovery`` the node
        stays dead (the as-built PicoCube has no supervised restart);
        with it, a power-on-reset supervisor watches the open-circuit
        voltage and restarts the node once it recovers past the
        hysteresis threshold.  A browned-out cell still self-discharges
        (and still accepts harvested charge through the charger tick).
        """
        now = self.engine.now
        dt = now - self._last_battery_sync
        if dt > 0.0:
            battery = self.battery
            if self.browned_out:
                battery.apply_self_discharge(dt)
            else:
                needed = self._i_battery * dt
                if needed >= battery.charge and self._i_battery > 0.0:
                    dead_at = (
                        self._last_battery_sync
                        + battery.charge / self._i_battery
                    )
                    battery.discharge(battery.charge)
                    self._enter_brownout(min(dead_at, now))
                else:
                    battery.discharge(needed)
                    battery.apply_self_discharge(dt)
        self._last_battery_sync = now

    def _enter_brownout(self, time_of_death: float) -> None:
        self.browned_out = True
        self.brownout_time = time_of_death
        self.brownout_events.append(BrownoutEvent(start_s=time_of_death))
        self._abort_cycle()
        self._i_battery = 0.0
        if self._wake_timer is not None:
            self._wake_timer.stop()
        for channel in ("mcu", "sensor", "radio-digital", "radio-rf",
                        "power-management"):
            if self.recorder.has_channel(channel):
                self.recorder.record(channel, 0.0)
        self._recorded_watts.clear()
        if self.config.brownout_recovery:
            self._arm_recovery_supervisor()

    def _abort_cycle(self) -> None:
        """Kill any in-flight sample cycle and park every load at sleep."""
        self._cycle_token += 1
        if self.sensor.measuring:
            # The abandoned measurement never completed; it does not count.
            self.sensor.measuring = False
        self._i_sensor = self.sensor.current()
        self._i_radio_digital = 0.0
        self._i_radio_rf = 0.0
        if self.train.radio_enabled:
            self.train.disable_radio()
        self.mcu.enter(Mode.LPM3)
        self._i_mcu = self.mcu.current(
            self.train.mcu_rail_voltage(), temperature_c=self.ambient_c()
        )
        self._cycle_active = False

    def _arm_recovery_supervisor(self) -> None:
        if self._recovery_timer is None:
            self._recovery_timer = PeriodicTimer(
                self.engine,
                self.config.recovery_check_period_s,
                self._check_recovery,
                name="por-supervisor",
            )
        if not self._recovery_timer.running:
            self._recovery_timer.start()

    def _check_recovery(self) -> None:
        if not self.browned_out:
            self._recovery_timer.stop()
            return
        self._sync_battery()
        if self.battery.open_circuit_voltage() >= self.config.recovery_voltage_v:
            self._exit_brownout()

    def _exit_brownout(self) -> None:
        """Power-on reset: leave brownout and re-arm the sample cycle."""
        now = self.engine.now
        self.browned_out = False
        self.brownout_events[-1].end_s = now
        if self._recovery_timer is not None:
            self._recovery_timer.stop()
        # Clear any load state the dying cycle mutated after the abort.
        self._abort_cycle()
        self._last_battery_sync = now
        if self._started and self._wake_timer is not None \
                and not self._wake_timer.running:
            self._wake_timer.start()
        self._update()

    @property
    def outage_s(self) -> float:
        """Total seconds spent browned out so far."""
        return left_sum(
            event.overlap_s(0.0, self.engine.now)
            for event in self.brownout_events
        )

    # ------------------------------------------------------------------ faults

    def set_harvest_derating(self, factor: float) -> None:
        """Scale the attached charger's input (fault injection).

        ``1.0`` is the healthy harvester; ``0.0`` is a full dropout (the
        shaker stopped, the car parked).  Applied at every harvest tick,
        so mid-run changes take effect at the next tick.
        """
        if factor < 0.0:
            raise ConfigurationError(
                f"harvest derating must be >= 0, got {factor}"
            )
        self._harvest_derating = factor

    def inject_reset(self) -> None:
        """Model a spurious MCU reset (watchdog bite, POR glitch).

        Aborts any in-flight sample cycle, restarts the rolling sequence
        counter at zero, and drops back to LPM3 — the wake source keeps
        running, so sampling resumes on the next interrupt.  A no-op
        while browned out (the supply is already gone).
        """
        if self.browned_out:
            return
        self.resets += 1
        self._seq = 0
        self._abort_cycle()
        self._update()

    def _advance_environment(self) -> None:
        now = self.engine.now
        dt = now - self._last_env_update
        if dt > 0.0 and hasattr(self.environment, "advance"):
            self.environment.advance(dt)
        self._last_env_update = now
        # Thermal coupling: the cell lives at the environment's temperature
        # (the tire warms everything with it); the MCU at its next mode.
        self.battery.set_temperature(self.ambient_c())

    # ------------------------------------------------------------------ control

    def start(self) -> None:
        """Arm the node's wake source (idempotent)."""
        if self._started:
            return
        self._started = True
        self._build_cycle()
        if self.config.sensor_kind == "tpms":
            self._wake_timer = PeriodicTimer(
                self.engine,
                self.sensor.wake_period_s,
                self._on_wake_interrupt,
                name="tpms-timer",
            )
            self._wake_timer.start()
        else:
            self._schedule_motion_wakeups()

    def _schedule_motion_wakeups(self) -> None:
        """Pre-compute the motion-threshold interrupts from the script."""
        horizon = max(
            (iv.end_s for iv in self.environment.intervals), default=0.0
        )
        for t in self.sensor.interrupt_times(self.environment, horizon + 1.0):
            if t >= self.engine.now:
                self.engine.schedule_at(t, self._on_wake_interrupt,
                                        name="motion-irq")

    def run(
        self,
        duration: float,
        checkpoint_every: Optional[float] = None,
        on_checkpoint: Optional[Callable[["PicoCube"], None]] = None,
    ) -> None:
        """Start (if needed) and simulate ``duration`` seconds.

        With ``checkpoint_every`` set, ``on_checkpoint(self)`` is invoked
        at the first checkpoint-safe event boundary after each elapsed
        interval and before the end time (see :meth:`checkpoint_safe`);
        the callback typically persists
        :func:`repro.sim.checkpoint.save_checkpoint` output.
        Checkpointing only observes state, so the run is bit-identical
        to an uncheckpointed one.
        """
        if duration < 0.0:
            raise SimulationError("duration must be >= 0")
        self.run_until_time(
            self.engine.now + duration,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    def run_until_time(
        self,
        end_time: float,
        checkpoint_every: Optional[float] = None,
        on_checkpoint: Optional[Callable[["PicoCube"], None]] = None,
    ) -> None:
        """Simulate to an absolute engine time.

        This is the resume primitive: a node restored from a checkpoint
        continues with ``run_until_time(original_end)``, which reproduces
        the uninterrupted run's tail exactly (a relative ``run(end -
        now)`` would re-round the end time and could shift the final
        quiescent integral by one ulp).
        """
        if end_time < self.engine.now:
            raise SimulationError("end_time precedes the engine clock")
        if checkpoint_every is not None:
            check_checkpoint_every(checkpoint_every)
        self.start()
        if self.fast_forward is not None:
            self.fast_forward.set_horizon(end_time)
        if checkpoint_every is None:
            self.engine.run_until(end_time)
        else:
            if on_checkpoint is None:
                raise SimulationError(
                    "checkpoint_every needs an on_checkpoint callback"
                )
            next_checkpoint = self.engine.now + checkpoint_every

            # No pause at end_time itself: the run is over there, so a
            # checkpoint would only be written to be thrown away.
            def pause() -> bool:
                return (
                    next_checkpoint <= self.engine.now < end_time
                    and self.checkpoint_safe()
                )

            while not self.engine.run_until(end_time, pause_hook=pause):
                on_checkpoint(self)
                next_checkpoint = self.engine.now + checkpoint_every
        self._sync_battery()
        self._update_recorder_tail()

    def checkpoint_safe(self) -> bool:
        """True when node state is fully capturable at this instant.

        From the wake interrupt to the cycle's last step the cycle is in
        flight: its next step, its pending continuation and the reading
        or packet it carries live only in the node's step state, which
        checkpoints do not hold.  At every other event boundary —
        sleeping, harvesting, browned out, mid fault storm — the node is
        plain data.
        """
        return not self._cycle_active

    def _update_recorder_tail(self) -> None:
        """Touch channels so traces extend to the current time."""
        for name in self.recorder.channel_names():
            trace = self.recorder.channel(name)
            trace.set(self.engine.now, trace.current)

    # ------------------------------------------------------------------ harvest

    def attach_charger(
        self,
        charging_current_fn: Callable[[float], float],
        update_period_s: float = 60.0,
        time_invariant: bool = False,
    ) -> None:
        """Feed the battery from a harvester.

        ``charging_current_fn(t)`` returns the average rectified charging
        current (A) around simulation time ``t``; a periodic task applies
        it through the C/10 trickle limiter.

        Declare ``time_invariant=True`` when the function's result does
        not depend on ``t`` (a constant-vibration harvester).  The cycle
        fast-forward accelerator only leaps past spans whose harvest it
        can replay, so a time-varying charger (a drive cycle) keeps the
        node on the exact event-by-event path automatically.
        """
        if self._charge_timer is not None:
            raise ConfigurationError("a charger is already attached")
        self._charger = TrickleCharger(self.battery)
        self._charge_current_fn = charging_current_fn
        self._charger_time_invariant = bool(time_invariant)

        def tick() -> None:
            self._sync_battery()
            current = (
                self._charge_current_fn(self.engine.now)
                * self._harvest_derating
            )
            self._charger.charge(current, update_period_s)

        self._charge_timer = PeriodicTimer(
            self.engine, update_period_s, tick, name="harvest-tick"
        )
        self._charge_timer.start()

    # ------------------------------------------------------------------ lifecycle

    def _build_cycle(self) -> None:
        """Build the wake cycle's step table; no cycle is in flight after.

        The firmware is interrupt driven (paper §4.5): a wake cycle is a
        fixed run of timed steps.  Each entry is ``(action, delay)``: the
        step's load changes, then the wait before the next step.  Every
        constant delay is computed here once, from the components the
        node holds now.  The on-air steps depend on the packet, so the
        radio-setup step puts them in place of the last packet's, from
        ``_cycle_tx_at`` to the table's last two steps.  A motion node's
        table repeats while the cube is moving,
        ``motion_sample_interval_s`` apart.
        """

        def path(name: str) -> float:
            return self.firmware.path(name).duration(self.mcu)

        tpms = self.config.sensor_kind == "tpms"
        table: List[_Step] = [
            (self._step_wake if tpms else self._step_motion_wake,
             self.mcu.wakeup_time_s + path("wake")),
            (_idle, path("sensor-config" if tpms else "read-xyz")),
            (self._step_sample, self.sensor.sample_duration()),
            (self._step_read, path("sample-read" if tpms else "format-packet")),
        ]
        if tpms:
            table.append((_idle, path("format-packet")))
        table += [
            (self._step_radio_setup,
             path("radio-setup") + self.spi.transfer_time(16)),
            (_idle, self.config.pa_sequencing_delay_s),
            # PA supply sequenced; oscillator start-up before the bits.
            (partial(self._set_radio_rf, self.tx.i_rf_on),
             self.tx.startup_time()),
            # ... the packet's on-air steps ...
            (self._step_radio_off,
             path("transmit-supervise") + path("sleep-entry")),
            (self._step_sleep, 0.0) if tpms else
            (self._step_motion_sleep, self.config.motion_sample_interval_s),
        ]
        self._cycle_steps = [
            (action, _checked_delay(delay)) for action, delay in table
        ]
        self._cycle_tx_at = len(table) - 2
        self._cycle_name = "on-cycle" if tpms else "motion-burst"
        self._cycle_active = False
        self._cycle_token += 1

    def _on_wake_interrupt(self) -> None:
        """Timer or motion-threshold interrupt: start the wake cycle."""
        if self._cycle_active or self.browned_out:
            return  # previous cycle still in flight; skip (never happens at 6 s)
        self._cycle_active = True
        self._cycle_token += 1
        token = self._cycle_token
        self._cycle_resume = resume = partial(self._walk_cycle, token)
        self._cycle_step = 0
        if self.engine._resume_after(0.0, resume, self._cycle_name + ".start"):
            self._walk_cycle(token)

    def _walk_cycle(self, token: int) -> None:
        """Run the in-flight cycle's steps from ``_cycle_step`` on.

        After each action its delay goes to :meth:`Engine._resume_after`:
        the next step runs inline when that returns True, else the step
        index stays stored and the pushed continuation calls back here.
        An action returning True ends the cycle.  A cycle aborted mid-step
        (brownout, reset) still waits out that step's delay, so its
        continuation fires as a no-op event; ``token`` tells it apart
        from any later cycle's.
        """
        if token != self._cycle_token:
            return
        resume_after = self.engine._resume_after
        resume, name = self._cycle_resume, self._cycle_name
        while True:
            action, delay = self._cycle_steps[self._cycle_step]
            self._cycle_step += 1
            if (action() or not resume_after(delay, resume, name)
                    or token != self._cycle_token):
                return

    def _step_wake(self) -> None:
        """Wake: LPM3 -> active, housekeeping."""
        self.cycle_start_times.append(self.engine.now)
        self._advance_environment()
        self._set_mcu(Mode.ACTIVE)

    def _step_motion_wake(self) -> Optional[bool]:
        """Wake for the next sample, or end the burst once still."""
        if not self.environment.is_moving(self.engine.now):
            self._cycle_active = False
            return True
        self._step_wake()
        return None

    def _step_sample(self) -> None:
        """Sensor configured: measure while the CPU parks in LPM0."""
        self._set_sensor_measuring(True)
        self._set_mcu(Mode.LPM0)

    def _step_read(self) -> None:
        """Measurement done: read it with the CPU active again."""
        self._reading = self.sensor.read(self.environment, self.engine.now)
        self._set_sensor_measuring(False)
        self._set_mcu(Mode.ACTIVE)
        if self.config.sensor_kind == "tpms":
            self.sensor.set_supply_reading(self.train.mcu_rail_voltage())

    def _step_radio_setup(self) -> None:
        """Packet formatted: digital rail first (clean shunt edge), SPI."""
        self._packet = packet = self._encode(self._reading)
        self._cycle_steps[self._cycle_tx_at:-2] = self._transmit_steps(packet)
        self.train.enable_radio()
        self._set_radio_digital(self.tx.i_digital)

    def _transmit_steps(self, packet: PicoPacket) -> Tuple[_Step, ...]:
        """The RF rail for one packet's bits, per the configured fidelity."""
        bits = self._line_code_bits(packet)
        set_rf = self._set_radio_rf
        if self.config.fidelity == "profile":
            v_rf_rail = self.tx.v_rf_rail
            return tuple(
                (partial(set_rf, power / v_rf_rail), _checked_delay(duration))
                for duration, power in self.modulator.power_segments(
                    bits, self.tx.p_dc_on
                )
            )
        return ((
            partial(set_rf, self.tx.ook_rf_current(ones_fraction(bits))),
            _checked_delay(self.modulator.duration(len(bits))),
        ),)

    def _step_radio_off(self) -> None:
        """Bits sent: tear the radio down, then supervise and sleep."""
        self._set_radio_rf(0.0)
        self._set_radio_digital(0.0)
        self.train.disable_radio()

    def _step_sleep(self) -> bool:
        """Back in LPM3: the packet is delivered or lost; the cycle ends."""
        self._set_mcu(Mode.LPM3)
        packet = self._packet
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
        return True

    def _step_motion_sleep(self) -> None:
        """A burst's sample done: wait, then wake again from the top."""
        self._step_sleep()
        self._cycle_active = True
        self._cycle_step = 0

    def _line_code_bits(self, packet: PicoPacket):
        """Frame bits after line coding (what actually hits the air)."""
        bits = packet.to_bits()
        if self.config.line_code == "manchester":
            return manchester_encode(bits)
        return bits

    def _encode(self, reading: dict) -> PicoPacket:
        if self.config.sensor_kind == "tpms":
            return encode_tpms_reading(
                self.config.node_id,
                self._seq,
                pressure_psi=reading["pressure_psi"],
                temperature_c=reading["temperature_c"],
                acceleration_g=reading["acceleration_g"],
                supply_v=reading["supply_v"],
            )
        return encode_accel_reading(
            self.config.node_id,
            self._seq,
            x_g=reading["accel_x_g"],
            y_g=reading["accel_y_g"],
            z_g=reading["accel_z_g"],
        )

    # ------------------------------------------------------------------ results

    def average_power(self, start: Optional[float] = None,
                      end: Optional[float] = None) -> float:
        """Mean battery-side power over a window (default: whole run), W."""
        return self.recorder.average_power(start, end)

    @property
    def battery_current_now(self) -> float:
        """Present battery draw, amperes."""
        return self._i_battery
