"""Power trains: declarative rail graphs behind the node's solve API.

The node needs (paper §4.3): 2.1-3.6 V always-on for the microcontroller
and sensor, 1.0 V gated for the radio digital logic, and a quiet 0.65 V
gated for the radio RF section.  Which converters provide those rails —
and where the quiescent losses sit — is a *topology*, and topologies are
data here: frozen :class:`~repro.power.graph.RailGraphSpec` values in the
:mod:`repro.power.rail_topologies` registry, solved by the generic
:class:`~repro.power.graph.RailGraph` walker.

:class:`GraphPowerTrain` puts any registered spec behind the node's
train API; :class:`CotsPowerTrain` (paper §4) and :class:`IcPowerTrain`
(paper §7.1) are thin subclasses that keep their historical constructor
parameters and the §4.5 switch sequencing.
Their solves are **bit-identical** to the retired hand-written bodies
(``tests/core/test_graph_equivalence.py`` pins every field to goldens
captured from the legacy code).

Attribution convention: subsystem channels record ``v_rail * i_load``;
everything else the battery delivers is power management — the quantity
the paper says dominates the 6 uW budget.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ElectricalError
from ..power.converter_ic import ConverterIC, ConverterICConfig
from ..power.graph import (
    CHANNELS,
    GraphSolutionBatch,
    RailGraph,
    RailGraphSpec,
)
from ..power.rail_topologies import (
    RADIO_GATE,
    cots_spec,
    get_rail_spec,
    ic_spec,
)
from ..power.switches import PowerSwitch

__all__ = [
    "check_load_currents",
    "LoadState",
    "TrainSolution",
    "GraphPowerTrain",
    "CotsPowerTrain",
    "IcPowerTrain",
    "make_power_train",
]


_INF = math.inf

#: The four load currents in :class:`LoadState` field order: a
#: ``LoadState``, or a plain tuple already passed through
#: :func:`check_load_currents`.
Loads = Tuple[float, float, float, float]


def check_load_currents(i_mcu: float, i_sensor: float,
                        i_radio_digital: float, i_radio_rf: float) -> None:
    """Reject a load current that is not finite and ``>= 0``.

    The one validation of the four subsystem currents: :class:`LoadState`
    runs it on construction and ``PicoCube._update`` once per update.
    Raises :class:`~repro.errors.ConfigurationError` naming the first
    bad field (or whatever ``math.isfinite`` raises on a non-number).
    """
    # One chained test per field; ``x + 0.0`` converts as math.isfinite
    # does, so anything else (an exception included) falls through to
    # the loop and its exact error.
    try:
        if (0.0 <= i_mcu + 0.0 < _INF
                and 0.0 <= i_sensor + 0.0 < _INF
                and 0.0 <= i_radio_digital + 0.0 < _INF
                and 0.0 <= i_radio_rf + 0.0 < _INF):
            return
    except Exception:
        pass
    for name, value in zip(_LoadCurrents._fields, (
            i_mcu, i_sensor, i_radio_digital, i_radio_rf)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if value < 0.0:
            raise ConfigurationError(f"{name} must be >= 0")


class _LoadCurrents(NamedTuple):
    i_mcu: float = 0.0
    i_sensor: float = 0.0
    i_radio_digital: float = 0.0
    i_radio_rf: float = 0.0


class LoadState(_LoadCurrents):
    """Instantaneous load currents of the node's subsystems, amperes.

    A named tuple whose construction runs :func:`check_load_currents`;
    :meth:`GraphPowerTrain.solve` takes it or a plain tuple of four
    currents already checked, in this field order.
    """

    __slots__ = ()

    def __new__(cls, i_mcu: float = 0.0, i_sensor: float = 0.0,
                i_radio_digital: float = 0.0,
                i_radio_rf: float = 0.0) -> LoadState:
        check_load_currents(i_mcu, i_sensor, i_radio_digital, i_radio_rf)
        return tuple.__new__(cls, (i_mcu, i_sensor, i_radio_digital,
                                   i_radio_rf))

    @classmethod
    def _make(cls, iterable) -> LoadState:
        # ``_replace`` builds through here: keep it checked too.
        return cls(*iterable)


class TrainSolution(NamedTuple):
    """Battery-side result of solving the power train."""

    v_battery: float
    i_battery: float
    v_mcu_rail: float
    subsystem_power: Dict[str, float]
    #: Power-management overhead: battery power minus delivered power.
    p_management: float

    @property
    def p_battery(self) -> float:
        """Total power leaving the battery, watts."""
        return self.v_battery * self.i_battery


class GraphPowerTrain:
    """Any registered rail-graph topology, behind the node's train API.

    ``enable_radio`` opens the spec's ``'radio'`` gate group when the
    spec defines one (other gate groups are driven via
    :meth:`set_gate`).  Fault injection can address the whole train
    (:meth:`set_degradation`) or one component by name
    (:meth:`set_component_degradation`).
    """

    def __init__(self, spec: RailGraphSpec) -> None:
        self.name = spec.name
        self.radio_enabled = False
        self._loss_factor = 1.0
        self.spec = spec
        self.graph = RailGraph(spec)
        self._open_gates: frozenset = frozenset()
        self._component_degradations: Dict[str, float] = {}
        # Attribution uses each channel's own tap voltage, so topologies
        # with non-paper rail voltages stay correctly accounted.
        self._tap_v = tuple(self.graph.tap_voltage(c) for c in CHANNELS)

    def mcu_rail_voltage(self) -> float:
        """The always-on logic rail voltage."""
        return self.graph.tap_voltage("mcu")

    @property
    def loss_factor(self) -> float:
        """Battery-current multiplier modelling converter degradation."""
        return self._loss_factor

    def set_degradation(self, loss_factor: float) -> None:
        """Derate conversion efficiency (fault injection: aged converters).

        ``loss_factor`` multiplies the battery-side current of every
        solve: the rails still deliver their nominal power, but the train
        burns more getting there — the extra shows up on the
        ``power-management`` channel, where the paper says the budget is
        won or lost.  ``1.0`` restores the healthy train.
        """
        if not math.isfinite(loss_factor):
            raise ConfigurationError(
                f"{self.name}: degradation loss factor must be finite, "
                f"got {loss_factor!r}"
            )
        if loss_factor < 1.0:
            raise ConfigurationError(
                f"{self.name}: degradation loss factor must be >= 1, "
                f"got {loss_factor}"
            )
        self._loss_factor = loss_factor

    def enable_radio(self) -> None:
        """Power up the gated radio supplies (before a transmission)."""
        if RADIO_GATE in self.graph._gate_set:
            self.set_gate(RADIO_GATE, True)
        self.radio_enabled = True

    def disable_radio(self) -> None:
        """Gate the radio supplies off (after a transmission)."""
        if RADIO_GATE in self.graph._gate_set:
            self.set_gate(RADIO_GATE, False)
        self.radio_enabled = False

    def set_gate(self, gate: str, conducting: bool) -> None:
        """Open or close one of the spec's gate groups by name."""
        self.graph._require_gate(gate)
        if conducting:
            self._open_gates = self._open_gates | {gate}
        else:
            self._open_gates = self._open_gates - {gate}

    def set_component_degradation(self, name: str, factor: float) -> None:
        """Degrade one graph component: its solved input current is
        multiplied by ``factor`` (>= 1; ``1.0`` heals it).  Unlike the
        train-wide :meth:`set_degradation`, a degraded mid-graph stage
        also inflates the load its upstream converter must carry.
        """
        if name not in self.graph.component_names():
            raise ConfigurationError(
                f"{self.name}: no component {name!r}; components: "
                f"{', '.join(self.graph.component_names())}"
            )
        if not math.isfinite(factor):
            raise ConfigurationError(
                f"{self.name}: degradation factor for {name!r} must be "
                f"finite, got {factor!r}"
            )
        if factor < 1.0:
            raise ConfigurationError(
                f"{self.name}: degradation factor for {name!r} must be "
                f">= 1, got {factor}"
            )
        if factor == 1.0:
            self._component_degradations.pop(name, None)
        else:
            self._component_degradations[name] = factor

    def component_degradations(self) -> Dict[str, float]:
        """Active per-component degradation factors (a copy)."""
        return dict(self._component_degradations)

    def describe(self) -> str:
        """Deterministic text rendering of the topology tree."""
        return self.graph.describe()

    def solve_graph_batch(self, v_battery, loads: Dict) -> GraphSolutionBatch:
        """Batched raw graph solutions over an operating-point axis.

        ``v_battery`` and the ``loads`` values (channel name to amperes)
        broadcast along one batch axis; the train's current gate state
        and per-component degradations apply to every point.  Results
        are bitwise equal to a loop of graph solves (see
        :meth:`RailGraph.solve_batch`).
        """
        if not self.radio_enabled:
            for channel in ("radio-digital", "radio-rf"):
                load = loads.get(channel, 0.0)
                if isinstance(load, (int, float)):
                    positive = load > 0.0
                else:
                    positive = bool(np.any(np.asarray(load) > 0.0))
                if positive:
                    raise ElectricalError(
                        f"{self.name}: radio load with its supplies "
                        f"gated off"
                    )
        return self.graph.solve_batch(
            v_battery,
            loads,
            open_gates=self._open_gates,
            degradation=self._component_degradations,
        )

    def solve(self, v_battery: float, loads: Loads,
              resistance: float = 0.0,
              i_previous: float = 0.0) -> TrainSolution:
        """The node's whole electrical step, on validated currents.

        With ``resistance == 0.0`` this is one point solve at
        ``v_battery``.  Otherwise ``v_battery`` is the cell's
        open-circuit voltage and the step is one fixed-point pass on the
        terminal voltage (NiMH sag is small at microamp-to-milliamp
        loads, so one iteration converges): pass 1 solves at ``v_battery
        - i_previous * resistance``, pass 2 at ``v_battery - i1 *
        resistance`` and returns pass 2's solution.  Both sags are
        ``terminal_voltage``'s own ``ocv - i * r``; the gating,
        degradation and kernel checks are made once for both passes.
        Raises :class:`~repro.errors.ElectricalError` when either pass
        leaves the operating envelope (or a radio load is gated off).
        """
        i_mcu, i_sensor, i_digital, i_rf = loads
        if not self.radio_enabled and (i_digital > 0.0 or i_rf > 0.0):
            raise ElectricalError(
                f"{self.name}: radio load with its supplies gated off"
            )
        graph = self.graph
        gates = self._open_gates
        degradation = self._component_degradations
        if degradation:
            graph._check_degradation_keys(degradation)
        kernel = graph._promoted_kernel(gates)
        loss = self._loss_factor
        sag = resistance != 0.0
        v = v_battery - i_previous * resistance if sag else v_battery
        while True:
            values = None
            if kernel is not None:
                try:
                    values = kernel.fn(v, i_mcu, i_sensor, i_digital, i_rf,
                                       degradation or None)
                except Exception:
                    values = None
            if values is None:
                # Not promoted, or the kernel declined the point: the
                # compiler's slow path answers or raises the walk's error.
                values = graph._solve_currents(
                    v, i_mcu, i_sensor, i_digital, i_rf, gates,
                    degradation)[1]
            i_battery = values[0]
            if loss != 1.0:
                i_battery = i_battery * loss
            if not sag:
                break
            sag = False
            v = v_battery - i_battery * resistance
        return self.solution(v, i_battery, i_mcu, i_sensor, i_digital, i_rf)

    def solution(self, v_battery: float, i_battery: float, i_mcu: float,
                 i_sensor: float, i_radio_digital: float,
                 i_radio_rf: float) -> TrainSolution:
        """The :class:`TrainSolution` of a solved operating point: each
        subsystem's power is its tap voltage times its load current, and
        power management is the battery power minus their left fold."""
        v_mcu, v_sensor, v_digital, v_rf = self._tap_v
        p_mcu = v_mcu * i_mcu
        p_sensor = v_sensor * i_sensor
        p_digital = v_digital * i_radio_digital
        p_rf = v_rf * i_radio_rf
        # An explicit left fold: sum() of floats is compensated from
        # Python 3.12 on, and the bits must not depend on the interpreter.
        delivered = 0.0 + p_mcu + p_sensor + p_digital + p_rf
        # Every field, in order: tuple.__new__ skips the named tuple's
        # Python-level __new__ (a third of this method's time).
        return tuple.__new__(TrainSolution, (v_battery, i_battery, v_mcu, {
            "mcu": p_mcu, "sensor": p_sensor, "radio-digital": p_digital,
            "radio-rf": p_rf,
        }, max(v_battery * i_battery - delivered, 0.0)))


class CotsPowerTrain(GraphPowerTrain):
    """The as-built COTS power train of paper §4."""

    def __init__(
        self,
        v_mcu_rail: float = 2.2,
        pump_i_snooze: float = 1.5e-6,
        shunt_r_series: float = 8.2e3,
        ldo_i_ground: float = 1.2e-6,
        switch_leak: float = 1e-9,
    ) -> None:
        super().__init__(cots_spec(
            v_mcu_rail=v_mcu_rail,
            pump_i_snooze=pump_i_snooze,
            shunt_r_series=shunt_r_series,
            ldo_i_ground=ldo_i_ground,
            switch_leak=switch_leak,
        ))
        # The physical gating hardware, kept for sequencing inspection;
        # electrically the graph's 'radio' gate carries the behaviour.
        self.input_switch = PowerSwitch(
            "ldo-input-switch", i_leak_off=switch_leak
        )
        self.output_switch = PowerSwitch(
            "pa-output-switch", i_leak_off=switch_leak
        )

    def enable_radio(self) -> None:
        # Sequencing per §4.5: PA supply switched at its input first (kill
        # quiescent), a short time later at its output (clean edge).
        self.input_switch.close()
        self.output_switch.close()
        super().enable_radio()

    def disable_radio(self) -> None:
        self.output_switch.open()
        self.input_switch.open()
        super().disable_radio()


class IcPowerTrain(GraphPowerTrain):
    """The integrated power train of paper §7.1."""

    def __init__(
        self,
        config: Optional[ConverterICConfig] = None,
        shunt_r_series: float = 8.2e3,
    ) -> None:
        super().__init__(ic_spec(config, shunt_r_series=shunt_r_series))
        # The composed IC model, kept for the analyses the graph does not
        # carry (ripple/noise chain, quiescent breakdown by source).
        self.ic = ConverterIC(config)

    def enable_radio(self) -> None:
        self.ic.enable_radio_rail()
        super().enable_radio()

    def disable_radio(self) -> None:
        self.ic.disable_radio_rail()
        super().disable_radio()


def make_power_train(kind: str) -> GraphPowerTrain:
    """Build a registered power train: ``'cots'`` (paper §4), ``'ic'``
    (paper §7.1), or any exploratory topology in
    :func:`repro.power.rail_topologies.rail_topology_names`.
    """
    if kind == "cots":
        return CotsPowerTrain()
    if kind == "ic":
        return IcPowerTrain()
    # get_rail_spec raises ConfigurationError naming the valid kinds.
    return GraphPowerTrain(get_rail_spec(kind))
