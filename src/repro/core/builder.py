"""Prebuilt node variants and full scenarios.

These are the entry points the examples and benchmarks use: one call
builds a node with its environment, harvester, and receive bench wired
together the way the paper's two demonstrations were.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..harvest.tire import DriveCycle, TireHarvester, commuter_cycle
from ..net.receiver_chain import DemoReceiverChain
from ..power.rectifier import SynchronousRectifier
from ..radio.antenna import PatchAntenna
from ..radio.link import RadioLink
from ..radio.receiver import SuperregenerativeReceiver
from ..sensors.environment import MotionEnvironment, MotionInterval, TireEnvironment
from .config import NodeConfig
from .node import PicoCube


def build_tpms_node(
    power_train: str = "cots",
    fidelity: str = "fast",
    node_id: int = 1,
    environment: Optional[TireEnvironment] = None,
) -> PicoCube:
    """The paper's flagship: the tire-pressure node."""
    config = NodeConfig(
        node_id=node_id,
        power_train=power_train,
        sensor_kind="tpms",
        fidelity=fidelity,
    )
    return PicoCube(config, environment=environment)


def build_motion_node(
    intervals: Optional[List[MotionInterval]] = None,
    power_train: str = "cots",
    fidelity: str = "fast",
    node_id: int = 2,
) -> PicoCube:
    """The retreat-demo node: accelerometer in motion-threshold mode."""
    environment = MotionEnvironment(
        intervals or [MotionInterval(10.0, 20.0), MotionInterval(40.0, 45.0)]
    )
    config = NodeConfig(
        node_id=node_id,
        power_train=power_train,
        sensor_kind="accel",
        fidelity=fidelity,
    )
    return PicoCube(config, environment=environment)


def equilibrate_tire_environment(
    environment: TireEnvironment, dt_s: float = 6.0, max_steps: int = 200_000
) -> TireEnvironment:
    """Advance a tire environment to its floating-point thermal fixed point.

    The per-cycle temperature map ``t -> t + (target - t) * alpha(dt)``
    converges to a value that the next step maps to *itself* (in float
    arithmetic).  A node whose environment starts at that fixed point has
    a genuinely stationary thermal state — every wake cycle sees
    bit-identical temperature and pressure — which is what lets the cycle
    fast-forward accelerator prove steady state.  ``dt_s`` should match
    the node's wake period (the interval at which the node advances its
    environment).
    """
    for _ in range(max_steps):
        before = environment.temperature_c
        environment.advance(dt_s)
        if environment.temperature_c == before:
            return environment
    raise RuntimeError("tire environment did not reach a thermal fixed point")


def build_steady_tpms_node(
    power_train: str = "cots",
    fidelity: str = "fast",
    node_id: int = 1,
    speed_kmh: float = 60.0,
    wake_period_s: Optional[float] = None,
    fast_forward: bool = False,
    harvest_current_a: Optional[float] = None,
    harvest_update_s: float = 60.0,
) -> PicoCube:
    """A drift-free steady-cruise TPMS node — the fast-forward showcase.

    The car holds ``speed_kmh`` forever, the tire sits at its thermal
    fixed point, the cell starts full, and a constant (time-invariant)
    harvester tops the trickle charge back up every tick — so after the
    first few cycles the node repeats its duty cycle bit-for-bit.  This is
    the scenario the year-scale benchmark and the fast-forward equivalence
    tests run, with ``fast_forward`` selecting the accelerated or the
    event-by-event path over identical physics.
    """
    environment = TireEnvironment()
    environment.set_speed_kmh(speed_kmh)
    period = 6.0 if wake_period_s is None else float(wake_period_s)
    equilibrate_tire_environment(environment, dt_s=period)
    config = NodeConfig(
        node_id=node_id,
        power_train=power_train,
        sensor_kind="tpms",
        fidelity=fidelity,
        fast_forward=fast_forward,
    )
    node = PicoCube(config, environment=environment)
    if wake_period_s is not None:
        node.sensor.wake_period_s = float(wake_period_s)
    node.battery.set_soc(1.0)
    current = (
        node.battery.trickle_current_limit
        if harvest_current_a is None
        else harvest_current_a
    )

    def constant_current(_time_s: float) -> float:
        return current

    node.attach_charger(
        constant_current, update_period_s=harvest_update_s, time_invariant=True
    )
    return node


def build_demo_bench() -> DemoReceiverChain:
    """The §6 receive bench: patch-antenna link into the superregen RX."""
    link = RadioLink(PatchAntenna())
    return DemoReceiverChain(link, SuperregenerativeReceiver())


@dataclasses.dataclass
class TpmsDeployment:
    """A tire node riding a drive cycle with its rim harvester.

    Glues together what the node core deliberately keeps separate: the
    drive cycle sets both the tire environment's speed and the harvester's
    output, and the charging current function feeds the node's trickle
    charger.
    """

    node: PicoCube
    cycle: DriveCycle
    harvester: TireHarvester
    rectifier: SynchronousRectifier

    def charging_current_fn(self) -> Callable[[float], float]:
        """Average rectified charging current vs. simulation time.

        Precomputed per drive-cycle segment (the waveform integration is
        too slow to run per harvest tick).
        """
        v_batt = self.node.battery.open_circuit_voltage()
        segment_currents = []
        for segment in self.cycle.segments:
            self.harvester.set_speed_kmh(segment.speed_kmh)
            if segment.speed_kmh <= 0.0:
                segment_currents.append((segment.duration_s, 0.0))
                continue
            waveform = self.harvester.waveform(
                self.harvester.characteristic_duration()
            )
            result = self.rectifier.rectify(
                waveform.t, waveform.v_oc, waveform.r_source, v_batt
            )
            segment_currents.append(
                (segment.duration_s, result.charge_out / result.duration)
            )

        total = self.cycle.duration

        def current_at(time_s: float) -> float:
            t = time_s % total
            for duration, current in segment_currents:
                if t < duration:
                    return current
                t -= duration
            return segment_currents[-1][1]

        return current_at

    def environment_speed_updater(self) -> Callable[[], None]:
        """A periodic task keeping the tire environment's speed current."""

        def update() -> None:
            self.node.environment.set_speed_kmh(
                self.cycle.speed_at(self.node.engine.now)
            )

        return update


def build_tpms_deployment(
    power_train: str = "cots",
    cycle: Optional[DriveCycle] = None,
    harvest_update_s: float = 60.0,
) -> TpmsDeployment:
    """A complete tire deployment: node + harvester + drive cycle, armed."""
    node = build_tpms_node(power_train=power_train)
    deployment = TpmsDeployment(
        node=node,
        cycle=cycle or commuter_cycle(),
        harvester=TireHarvester(),
        rectifier=SynchronousRectifier(),
    )
    node.attach_charger(
        deployment.charging_current_fn(), update_period_s=harvest_update_s
    )
    from ..sim.clock import PeriodicTimer

    speed_timer = PeriodicTimer(
        node.engine,
        harvest_update_s,
        deployment.environment_speed_updater(),
        name="speed-update",
    )
    speed_timer.start(first_delay=0.0)
    return deployment
