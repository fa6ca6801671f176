"""Versioned, bit-identical simulation checkpoints.

A checkpoint captures a :class:`~repro.core.node.PicoCube` mid-run —
engine clock and pending events, battery and power-train state, fault
stacks and noise-RNG position, recorder traces — such that restoring it
and running to the original end time reproduces the uninterrupted run
**bit-for-bit** (every float compares equal under ``float.hex``).  The
guarantees rest on three design rules:

1. **Pause without perturbing.**  Checkpoints are only taken at event
   boundaries (``Engine.run_until``'s ``pause_hook``), never by splitting
   an inter-event interval, so lazy battery integration sees the exact
   same ``i * dt`` products either way.
2. **Resume to the absolute end time.**  ``run_until_time(end)`` rather
   than ``run(end - now)`` — float subtraction then re-addition is not
   the identity.
3. **Rebuild, then rewind.**  Restore starts from a freshly constructed
   scenario at ``t=0`` (so generators, closures, and solver caches are
   real objects, not pickles), clears its queue, and re-creates the
   checkpoint's pending events through their owners in original
   scheduling order — reproducing the engine's same-instant tie-breaking
   exactly.  The restored queue is verified descriptor-by-descriptor.

Every state container here is a dataclass carrying a
``CHECKPOINT_VERSION`` and registered in the schema registry
(``register_state`` refuses a class without its own integer version);
bumping a dataclass's version invalidates old checkpoints, which
restore refuses with :class:`CheckpointError` so callers fall back to a
cold run.

This module sits deliberately above both the ``sim`` substrate and the
``core`` node model: it is the one place allowed to reach into private
component state, because its whole job is totality of capture.

See ``docs/RUNNER.md`` ("Checkpoints") for the on-disk format and the
version policy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import CheckpointError, ConfigurationError
from .clock import PeriodicTimer
from .trace import StepTrace

#: On-disk envelope version (header + pickle body layout).
CHECKPOINT_FORMAT_VERSION = 1

_MAGIC = "repro-checkpoint"

#: Registry of every checkpointable state dataclass, name -> class.
_SCHEMA: Dict[str, type] = {}


def register_state(cls: type) -> type:
    """Class decorator: admit a state dataclass to the checkpoint schema.

    Requires an integer ``CHECKPOINT_VERSION`` class attribute declared
    directly on ``cls`` — the version is the compatibility contract, so
    inheriting one silently would defeat its purpose.
    """
    version = cls.__dict__.get("CHECKPOINT_VERSION")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ConfigurationError(
            f"{cls.__name__} must declare an integer CHECKPOINT_VERSION"
        )
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(
            f"{cls.__name__} must be a dataclass to join the checkpoint schema"
        )
    _SCHEMA[cls.__name__] = cls
    return cls


def registered_states() -> Dict[str, type]:
    """The schema registry (a copy): state-class name to class."""
    return dict(_SCHEMA)


def schema_versions() -> Dict[str, int]:
    """Current ``CHECKPOINT_VERSION`` of every registered state class."""
    return {
        name: cls.CHECKPOINT_VERSION for name, cls in sorted(_SCHEMA.items())
    }


# ---------------------------------------------------------------------------
# state dataclasses
# ---------------------------------------------------------------------------


@register_state
@dataclasses.dataclass
class EngineState:
    """Clock, counters, and the live event queue of an Engine."""

    CHECKPOINT_VERSION = 1

    now: float
    sequence: int
    events_fired: int
    #: ``(sequence, time, priority, name)`` per live event, in
    #: scheduling order (see ``Engine.pending_events``).
    pending: Tuple[Tuple[int, float, int, str], ...]


@register_state
@dataclasses.dataclass
class TimerState:
    """One PeriodicTimer's drift-free tick state."""

    CHECKPOINT_VERSION = 1

    running: bool
    epoch: float
    tick: int
    fired_count: int

    @classmethod
    def capture(cls, timer: Optional[PeriodicTimer]) -> Optional["TimerState"]:
        """Snapshot a timer (None passes through for absent timers)."""
        if timer is None:
            return None
        return cls(**timer.state_dict())

    def as_dict(self) -> dict:
        """The ``PeriodicTimer.restore_state`` payload."""
        return dataclasses.asdict(self)


@register_state
@dataclasses.dataclass
class BatteryState:
    """NiMH cell charge, thermal, and fault-knob state."""

    CHECKPOINT_VERSION = 1

    charge_coulombs: float
    temperature_c: float
    overcharge_heat_joules: float
    self_discharge_multiplier: float
    esr_multiplier: float


@register_state
@dataclasses.dataclass
class ChargerState:
    """Trickle-charger lifetime accounting."""

    CHECKPOINT_VERSION = 1

    total_clamped_coulombs: float
    total_stored_coulombs: float


@register_state
@dataclasses.dataclass
class TrainState:
    """Power-train gate and degradation state."""

    CHECKPOINT_VERSION = 1

    radio_enabled: bool
    loss_factor: float
    open_gates: Tuple[str, ...]
    component_degradations: Dict[str, float]


@register_state
@dataclasses.dataclass
class EnvironmentState:
    """Mutable tire-environment state (None for scripted environments)."""

    CHECKPOINT_VERSION = 1

    speed_kmh: float
    temperature_c: float
    cold_pressure_psi: float


@register_state
@dataclasses.dataclass
class NodeState:
    """Everything mutable on a PicoCube at a checkpoint-safe instant."""

    CHECKPOINT_VERSION = 1

    # Electrical operating point.
    i_mcu: float
    i_sensor: float
    i_radio_digital: float
    i_radio_rf: float
    i_battery: float
    last_battery_sync: float
    last_env_update: float
    # Lifecycle bookkeeping.
    cycles_completed: int
    packets_sent: List[Any]
    packets_corrupted: List[Any]
    cycle_start_times: List[float]
    browned_out: bool
    brownout_time: Optional[float]
    #: ``(start_s, end_s)`` per episode; ``end_s`` None while ongoing.
    brownout_events: List[Tuple[float, Optional[float]]]
    resets: int
    started: bool
    seq: int
    harvest_derating: float
    # Sub-component state.
    mcu_mode: str
    mcu_mode_transitions: int
    sensor_measuring: bool
    sensor_samples_taken: int
    sensor_supply_voltage: Optional[float]
    battery: BatteryState
    charger: Optional[ChargerState]
    train: TrainState
    environment: Optional[EnvironmentState]
    # Timers (None when never created).
    wake_timer: Optional[TimerState]
    recovery_timer: Optional[TimerState]
    charge_timer: Optional[TimerState]
    #: Recorder channel name -> ``StepTrace.state_dict()``.
    traces: Dict[str, dict]


@register_state
@dataclasses.dataclass
class InjectorState:
    """Live fault-injector state: stacks, RNG position, and logs."""

    CHECKPOINT_VERSION = 1

    armed: bool
    armed_at: float
    rng_state: Any
    deratings: List[float]
    spikes: List[float]
    esr: List[float]
    degradations: List[float]
    component_degradations: Dict[str, List[float]]
    noise: List[float]
    log: List[Tuple[float, str]]
    corrupted: List[Any]


@register_state
@dataclasses.dataclass
class Checkpoint:
    """A complete, versioned snapshot of a paused simulation."""

    CHECKPOINT_VERSION = 1

    #: ``{"kind": ..., "params": {...}}`` — how to rebuild the scenario
    #: through the factory registry (None for caller-managed rebuilds).
    scenario: Optional[dict]
    engine: EngineState
    node: NodeState
    injector: Optional[InjectorState]
    #: Schema versions at save time, checked on restore.
    versions: Dict[str, int]
    #: Caller metadata (e.g. the run's absolute end time) — opaque here.
    meta: Dict[str, Any]


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def save_checkpoint(
    node,
    injector=None,
    scenario: Optional[dict] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Checkpoint:
    """Snapshot a paused node (and optionally its fault injector).

    The node must be at a checkpoint-safe event boundary
    (``node.checkpoint_safe()``) — ``PicoCube.run`` with
    ``checkpoint_every`` guarantees this for its ``on_checkpoint``
    callbacks.  Capture is pure observation: the node can keep running
    afterwards and remains bit-identical to a never-checkpointed run.
    """
    if not node.checkpoint_safe():
        raise CheckpointError(
            "node is mid-cycle; checkpoints only capture safe boundaries"
        )
    engine = node.engine
    engine_state = EngineState(
        now=engine.now,
        sequence=engine.sequence,
        events_fired=engine.events_fired,
        pending=engine.pending_events(),
    )
    env = node.environment
    env_state = None
    if hasattr(env, "advance"):
        env_state = EnvironmentState(
            speed_kmh=env.speed_kmh,
            temperature_c=env.temperature_c,
            cold_pressure_psi=env.cold_pressure_psi,
        )
    train = node.train
    train_state = TrainState(
        radio_enabled=train.radio_enabled,
        loss_factor=train.loss_factor,
        open_gates=tuple(sorted(getattr(train, "_open_gates", ()))),
        component_degradations=dict(
            getattr(train, "_component_degradations", {})
        ),
    )
    charger_state = None
    if node._charger is not None:
        charger_state = ChargerState(
            total_clamped_coulombs=node._charger.total_clamped_coulombs,
            total_stored_coulombs=node._charger.total_stored_coulombs,
        )
    node_state = NodeState(
        i_mcu=node._i_mcu,
        i_sensor=node._i_sensor,
        i_radio_digital=node._i_radio_digital,
        i_radio_rf=node._i_radio_rf,
        i_battery=node._i_battery,
        last_battery_sync=node._last_battery_sync,
        last_env_update=node._last_env_update,
        cycles_completed=node.cycles_completed,
        packets_sent=list(node.packets_sent),
        packets_corrupted=list(node.packets_corrupted),
        cycle_start_times=node.cycle_start_times.tolist(),
        browned_out=node.browned_out,
        brownout_time=node.brownout_time,
        brownout_events=[
            (event.start_s, event.end_s) for event in node.brownout_events
        ],
        resets=node.resets,
        started=node._started,
        seq=node._seq,
        harvest_derating=node._harvest_derating,
        mcu_mode=node.mcu.mode.name,
        mcu_mode_transitions=node.mcu.mode_transitions,
        sensor_measuring=node.sensor.measuring,
        sensor_samples_taken=node.sensor.samples_taken,
        sensor_supply_voltage=getattr(node.sensor, "supply_voltage", None),
        battery=BatteryState(
            charge_coulombs=node.battery.charge,
            temperature_c=node.battery.temperature_c,
            overcharge_heat_joules=node.battery.overcharge_heat_joules,
            self_discharge_multiplier=node.battery._self_discharge_multiplier,
            esr_multiplier=node.battery._esr_multiplier,
        ),
        charger=charger_state,
        train=train_state,
        environment=env_state,
        wake_timer=TimerState.capture(node._wake_timer),
        recovery_timer=TimerState.capture(node._recovery_timer),
        charge_timer=TimerState.capture(node._charge_timer),
        traces={
            name: node.recorder.channel(name).state_dict()
            for name in node.recorder.channel_names()
        },
    )
    injector_state = None
    if injector is not None:
        injector_state = InjectorState(**injector.state_dict())
    return Checkpoint(
        scenario=scenario,
        engine=engine_state,
        node=node_state,
        injector=injector_state,
        versions=schema_versions(),
        meta=dict(meta or {}),
    )


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def restore_checkpoint(checkpoint: Checkpoint, node, injector=None) -> None:
    """Rewind a freshly built scenario to a checkpoint, in place.

    ``node`` (and ``injector``, when the checkpoint carries fault state)
    must be newly constructed with the *same* configuration the
    checkpoint was taken from — same topology, charger, schedule, seeds.
    Their engine is cleared and every pending event is re-created through
    its owning component in the checkpoint's scheduling order; the
    restored queue is then verified against the saved descriptors and a
    mismatch raises :class:`CheckpointError` (the classic symptom of
    restoring into a differently-configured scenario).
    """
    current = schema_versions()
    if checkpoint.versions != current:
        raise CheckpointError(
            f"checkpoint schema versions {checkpoint.versions} do not match "
            f"current {current}; refusing a lossy restore"
        )
    if (checkpoint.injector is not None) != (injector is not None):
        raise CheckpointError(
            "checkpoint and restore disagree about fault injection"
        )
    state = checkpoint.node
    engine = node.engine
    engine.reset_for_restore(
        checkpoint.engine.now,
        checkpoint.engine.sequence,
        checkpoint.engine.events_fired,
    )
    _restore_node_state(node, state)
    if injector is not None:
        saved = checkpoint.injector
        # Not dataclasses.asdict: that would recurse into the
        # CorruptedFrame records and flatten them into dicts.
        injector.restore_state(
            {
                field.name: getattr(saved, field.name)
                for field in dataclasses.fields(saved)
            }
        )
    _restore_pending(checkpoint, node, injector)


def _restore_node_state(node, state: NodeState) -> None:
    from ..core.node import BrownoutEvent
    from ..mcu.msp430 import Mode

    node._i_mcu = state.i_mcu
    node._i_sensor = state.i_sensor
    node._i_radio_digital = state.i_radio_digital
    node._i_radio_rf = state.i_radio_rf
    node._i_battery = state.i_battery
    node._last_battery_sync = state.last_battery_sync
    node._last_env_update = state.last_env_update
    node.cycles_completed = state.cycles_completed
    node.packets_sent = list(state.packets_sent)
    node.packets_corrupted = list(state.packets_corrupted)
    node.cycle_start_times = array("d", state.cycle_start_times)
    node.browned_out = state.browned_out
    node.brownout_time = state.brownout_time
    node.brownout_events = [
        BrownoutEvent(start_s=start, end_s=end)
        for start, end in state.brownout_events
    ]
    node.resets = state.resets
    node._started = state.started
    node._seq = state.seq
    node._harvest_derating = state.harvest_derating
    # A restored node may count as started without start() having run.
    node._build_cycle()
    # Sub-components.
    node.mcu.mode = Mode[state.mcu_mode]
    node.mcu.mode_transitions = state.mcu_mode_transitions
    node.sensor.measuring = state.sensor_measuring
    node.sensor.samples_taken = state.sensor_samples_taken
    if state.sensor_supply_voltage is not None:
        node.sensor.supply_voltage = state.sensor_supply_voltage
    battery = state.battery
    node.battery._charge = battery.charge_coulombs
    node.battery.temperature_c = battery.temperature_c
    node.battery.overcharge_heat_joules = battery.overcharge_heat_joules
    node.battery._self_discharge_multiplier = (
        battery.self_discharge_multiplier
    )
    node.battery._esr_multiplier = battery.esr_multiplier
    if state.charger is not None:
        if node._charger is None:
            raise CheckpointError(
                "checkpoint has charger state but the rebuilt scenario "
                "attached no charger"
            )
        node._charger.total_clamped_coulombs = (
            state.charger.total_clamped_coulombs
        )
        node._charger.total_stored_coulombs = (
            state.charger.total_stored_coulombs
        )
    train = state.train
    node.train.radio_enabled = train.radio_enabled
    node.train._loss_factor = train.loss_factor
    if hasattr(node.train, "_open_gates"):
        node.train._open_gates = frozenset(train.open_gates)
        node.train._component_degradations = dict(
            train.component_degradations
        )
    if state.environment is not None:
        env = node.environment
        env.speed_kmh = state.environment.speed_kmh
        env._temperature_c = state.environment.temperature_c
        env.cold_pressure_psi = state.environment.cold_pressure_psi
    node.recorder.restore_channels(
        {
            name: StepTrace.from_state_dict(trace_state)
            for name, trace_state in state.traces.items()
        }
    )
    # The fresh node's construction-time writes went with its old traces.
    node._recorded_watts.clear()


def _ensure_timers(node, state: NodeState) -> Dict[str, tuple]:
    """Create absent timers and map timer name -> (timer, saved state)."""
    timers: Dict[str, tuple] = {}
    if state.wake_timer is not None:
        if node._wake_timer is None:
            node._wake_timer = PeriodicTimer(
                node.engine,
                node.sensor.wake_period_s,
                node._on_wake_interrupt,
                name="tpms-timer",
            )
        timers[node._wake_timer.name] = (node._wake_timer, state.wake_timer)
    if state.recovery_timer is not None:
        if node._recovery_timer is None:
            node._recovery_timer = PeriodicTimer(
                node.engine,
                node.config.recovery_check_period_s,
                node._check_recovery,
                name="por-supervisor",
            )
        timers[node._recovery_timer.name] = (
            node._recovery_timer,
            state.recovery_timer,
        )
    if state.charge_timer is not None:
        if node._charge_timer is None:
            raise CheckpointError(
                "checkpoint has harvest-timer state but the rebuilt "
                "scenario attached no charger"
            )
        timers[node._charge_timer.name] = (
            node._charge_timer,
            state.charge_timer,
        )
    return timers


def _restore_pending(checkpoint: Checkpoint, node, injector) -> None:
    engine = node.engine
    timers = _ensure_timers(node, checkpoint.node)
    # Idle timers carry no pending event; restore their tick state now
    # (restore_state with running=False schedules nothing).
    for timer, saved in timers.values():
        if not saved.running:
            timer.restore_state(saved.as_dict())
    transitions: List[tuple] = []
    if injector is not None and checkpoint.injector.armed:
        transitions = injector.planned_transitions(
            checkpoint.injector.armed_at
        )
    transition_index = 0
    restored_timers = set()
    for _, time_s, _, name in checkpoint.engine.pending:
        entry = timers.get(name)
        if entry is not None:
            timer, saved = entry
            if name in restored_timers:
                raise CheckpointError(
                    f"checkpoint pends two events for timer {name!r}"
                )
            if not saved.running:
                raise CheckpointError(
                    f"timer {name!r} pends an event but was saved stopped"
                )
            timer.restore_state(saved.as_dict())
            restored_timers.add(name)
        elif name == "motion-irq":
            engine.schedule_at(
                time_s, node._on_wake_interrupt, name="motion-irq"
            )
        elif name in ("fault-on", "fault-off", "fault-reset"):
            # Transitions were armed in the schedule's canonical order;
            # the pending suffix preserves it, so a forward scan finds
            # each event's transition exactly once.
            while transition_index < len(transitions):
                t_time, t_name, t_callback = transitions[transition_index]
                transition_index += 1
                if t_time == time_s and t_name == name:
                    engine.schedule_at(t_time, t_callback, name=t_name)
                    break
            else:
                raise CheckpointError(
                    f"no planned fault transition matches pending "
                    f"{name!r} at t={time_s}"
                )
        else:
            raise CheckpointError(
                f"pending event {name!r} has no registered restore owner"
            )
    restored = tuple(
        (time, priority, name)
        for _, time, priority, name in engine.pending_events()
    )
    saved_pending = tuple(
        (time, priority, name)
        for _, time, priority, name in checkpoint.engine.pending
    )
    if restored != saved_pending:
        raise CheckpointError(
            f"restored event queue {restored} does not reproduce the "
            f"checkpoint's {saved_pending}; was the scenario rebuilt with "
            "a different configuration?"
        )


# ---------------------------------------------------------------------------
# scenario factories
# ---------------------------------------------------------------------------

#: Scenario kind -> factory; a factory takes the checkpoint's ``params``
#: dict and returns ``(node, injector_or_None)`` freshly built at t=0
#: with the charger attached and (when faulted) the injector armed.
SCENARIO_FACTORIES: Dict[str, Callable[[dict], tuple]] = {}


def register_scenario(kind: str, factory: Callable[[dict], tuple]) -> None:
    """Register a scenario factory for checkpoint-driven rebuilds."""
    if kind in SCENARIO_FACTORIES:
        raise ConfigurationError(f"scenario kind {kind!r} already registered")
    SCENARIO_FACTORIES[kind] = factory


def build_scenario(kind: str, params: dict) -> tuple:
    """Build ``(node, injector)`` through the factory registry."""
    factory = SCENARIO_FACTORIES.get(kind)
    if factory is None:
        raise CheckpointError(
            f"no scenario factory registered for kind {kind!r}; "
            f"known kinds: {sorted(SCENARIO_FACTORIES)}"
        )
    return factory(dict(params))


def restore_from(checkpoint: Checkpoint) -> tuple:
    """Rebuild a checkpoint's scenario and restore into it.

    Returns ``(node, injector)`` positioned at the checkpoint instant,
    ready for ``node.run_until_time(checkpoint.meta['end_time'])``.
    """
    if not checkpoint.scenario:
        raise CheckpointError(
            "checkpoint carries no scenario descriptor; rebuild the node "
            "yourself and call restore_checkpoint"
        )
    node, injector = build_scenario(
        checkpoint.scenario["kind"], checkpoint.scenario.get("params", {})
    )
    restore_checkpoint(checkpoint, node, injector)
    return node, injector


def resume_run(checkpoint: Checkpoint, end_time: Optional[float] = None):
    """Rebuild, restore, and run a checkpoint to its end time.

    ``end_time`` defaults to the checkpoint's ``meta['end_time']`` (the
    absolute end the interrupted run was headed for).  Returns the
    ``(node, injector)`` pair after the run completes.
    """
    if end_time is None:
        end_time = checkpoint.meta.get("end_time")
        if end_time is None:
            raise CheckpointError(
                "checkpoint meta carries no end_time; pass one explicitly"
            )
    node, injector = restore_from(checkpoint)
    node.run_until_time(float(end_time))
    return node, injector


# ---------------------------------------------------------------------------
# disk envelope
# ---------------------------------------------------------------------------


def write_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Persist a checkpoint atomically (JSON header line + pickle body).

    The header carries the magic, the envelope format version, the
    schema versions, and a SHA-256 of the body, mirroring the result
    store's corruption armour; the write goes through a same-directory
    temp file and ``os.replace`` so a SIGKILL can never leave a torn
    checkpoint behind — readers see the old file or the new one.
    """
    body = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "magic": _MAGIC,
            "format": CHECKPOINT_FORMAT_VERSION,
            "versions": checkpoint.versions,
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(header.encode("utf-8") + b"\n" + body)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def read_checkpoint(path: str) -> Checkpoint:
    """Load a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`CheckpointError` for missing, corrupt (bad magic,
    truncated body, digest mismatch), or stale-versioned files —
    callers treat all of these as "start cold".
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}")
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {path!r} has no header")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"checkpoint {path!r} header unreadable: {error}")
    if header.get("magic") != _MAGIC:
        raise CheckpointError(f"checkpoint {path!r} has wrong magic")
    if header.get("format") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} uses envelope format "
            f"{header.get('format')}, expected {CHECKPOINT_FORMAT_VERSION}"
        )
    body = raw[newline + 1 :]
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise CheckpointError(f"checkpoint {path!r} failed its digest check")
    try:
        checkpoint = pickle.loads(body)
    except Exception as error:  # pickle raises a zoo of types
        raise CheckpointError(f"checkpoint {path!r} body unreadable: {error}")
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(f"checkpoint {path!r} holds a foreign object")
    if checkpoint.versions != schema_versions():
        raise CheckpointError(
            f"checkpoint {path!r} was saved with schema versions "
            f"{checkpoint.versions}; current are {schema_versions()}"
        )
    return checkpoint


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------


def node_fingerprint(node) -> Dict[str, Any]:
    """Float-hex digest of a node's observable end state.

    Every float is rendered with ``float.hex`` so two fingerprints
    compare equal **iff** the runs are bit-identical — the assertion at
    the heart of the checkpoint test suite.
    """

    def fhex(value: float) -> str:
        return float(value).hex()

    engine = node.engine
    return {
        "now": fhex(engine.now),
        "events_fired": engine.events_fired,
        "pending_signature": [
            (fhex(dt), priority, name)
            for dt, priority, name in engine.pending_signature()
        ],
        "battery_charge": fhex(node.battery.charge),
        "battery_heat": fhex(node.battery.overcharge_heat_joules),
        "i_battery": fhex(node._i_battery),
        "cycles_completed": node.cycles_completed,
        "packets_sent": len(node.packets_sent),
        "packets_corrupted": len(node.packets_corrupted),
        "resets": node.resets,
        "browned_out": node.browned_out,
        "brownout_events": [
            (fhex(event.start_s),
             None if event.end_s is None else fhex(event.end_s))
            for event in node.brownout_events
        ],
        "energy": {
            name: fhex(node.recorder.energy(name))
            for name in node.recorder.channel_names()
        },
    }
