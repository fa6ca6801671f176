"""Declarative rail graphs: power-train topologies as data.

The paper's argument (§4, §7.1) is that the power-interface *topology* —
which converters feed which rails, and where the quiescent losses sit —
decides the 6 µW budget.  This module makes topology a first-class,
serializable value instead of a hand-written ``solve`` body:

* a :class:`RailGraphSpec` is a frozen DAG of typed component specs
  (source, charge pump, SC converter, LDO, shunt, switch, drain, load
  taps), JSON round-trippable via :meth:`RailGraphSpec.to_dict`;
* a :class:`RailGraph` instantiates the converter models of this package
  for each spec and solves the whole graph quasi-statically for any
  ``(v_source, loads)`` point.

The generic solver reproduces the retired hand-written
``CotsPowerTrain.solve`` / ``IcPowerTrain.solve`` bodies **bit-exactly**
(pinned by ``tests/core/test_graph_equivalence.py`` against goldens
captured from the legacy code); the float-level conventions that make
that possible are part of this module's contract:

* branch currents are summed in **declaration order**, accumulating from
  ``0.0`` (IEEE-754: ``0.0 + x == x`` and left-to-right grouping match
  the legacy expressions term for term);
* a cascade solves each stage at its parent's **nominal** output voltage
  (a regulated rail is modelled as stiff — exactly what the legacy
  trains assumed), and a switch passes its input voltage through;
* a component whose ``gate`` is closed contributes only its
  ``i_leak_off`` and its subtree is not descended.

Fault hooks address components by name: ``degradation[name]`` multiplies
that component's solved input current, so an aged converter can be
injected *per stage* rather than train-wide.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import weakref
from collections.abc import Mapping as MappingABC
from typing import (
    TYPE_CHECKING, Any, ClassVar, Dict, FrozenSet, Iterator, List, Mapping,
    Optional, Tuple, Union,
)

import numpy as np

from ..errors import ConfigurationError
from .base import VoltageRange
from .charge_pump import RegulatedChargePump
from .linear_regulator import LinearRegulator
from .sc_converter import design_for_load
from .shunt_regulator import ShuntRegulator
from .topologies import rail_network

if TYPE_CHECKING:
    from .compile import CompiledKernel
    from .workspace import Workspace

#: The node's subsystem channels, in recorder attribution order.
CHANNELS = ("mcu", "sensor", "radio-digital", "radio-rf")

_F64 = np.dtype(np.float64)

_COMPILE_MODULE = None


def _compile_module():
    """Lazy accessor for :mod:`repro.power.compile`.

    That module imports this one for the graph types, so the dependency
    must resolve at first solve, not at import; caching the module in a
    global keeps the per-call cost of reaching it to one function call.
    """
    global _COMPILE_MODULE
    if _COMPILE_MODULE is None:
        from . import compile as module
        _COMPILE_MODULE = module
    return _COMPILE_MODULE


# ---------------------------------------------------------------------------
# Component specs (frozen, serializable)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """The graph's single energy source (the battery terminal)."""

    kind: ClassVar[str] = "source"

    name: str


@dataclasses.dataclass(frozen=True)
class ComponentSpec:
    """Common shape of every non-source component: a name and a parent."""

    name: str
    parent: str


@dataclasses.dataclass(frozen=True)
class ChargePumpSpec(ComponentSpec):
    """A gain-hopping regulated charge pump (TPS60313 class)."""

    kind: ClassVar[str] = "charge-pump"

    v_out: float = 2.2
    gains: Tuple[float, ...] = (1.5, 2.0)
    i_quiescent: float = 28e-6
    i_snooze: float = 1.0e-6
    snooze_load_threshold: float = 2e-3
    v_in_min: float = 0.9
    v_in_max: float = 1.8
    headroom: float = 0.05
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class ScConverterSpec(ComponentSpec):
    """A switched-capacitor converter sized by :func:`design_for_load`.

    ``network`` names a canonical two-phase network in
    :func:`repro.power.topologies.rail_network`; the device budgets are
    derived deterministically from the sizing parameters, so equal specs
    always build bit-identical converters.
    """

    kind: ClassVar[str] = "sc-converter"

    network: str = "doubler"
    v_in_design: float = 1.1
    v_out: float = 2.1
    i_load_max: float = 2e-3
    f_max: float = 20e6
    margin: float = 1.3
    fsl_fraction: float = 0.4
    tau_gate: float = 1.5e-12
    alpha_bottom_plate: float = 0.0015
    i_controller: float = 0.35e-6
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class LdoSpec(ComponentSpec):
    """A low-dropout linear regulator (LT3020 class / IC post-reg)."""

    kind: ClassVar[str] = "ldo"

    v_out: float = 0.65
    dropout: float = 0.15
    i_ground: float = 1.0e-6
    i_shutdown: float = 0.0
    i_max: float = 10e-3
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class ShuntSpec(ComponentSpec):
    """A series-resistor + shunt-clamp regulator (the 1.0 V logic rail)."""

    kind: ClassVar[str] = "shunt"

    v_out: float = 1.0
    r_series: float = 8.2e3
    i_bias_min: float = 10e-6
    gate: Optional[str] = None
    i_leak_off: float = 0.0


@dataclasses.dataclass(frozen=True)
class SwitchSpec(ComponentSpec):
    """A power-gating switch: passes its input voltage and current through.

    While its gate is open (conducting) the switch is electrically
    transparent at the quasi-static level — exactly how the legacy COTS
    solve treated the LDO input switch; while closed it contributes only
    ``i_leak_off`` to its parent.
    """

    kind: ClassVar[str] = "switch"

    gate: Optional[str] = None
    i_leak_off: float = 1e-9


@dataclasses.dataclass(frozen=True)
class DrainSpec(ComponentSpec):
    """A constant standing draw with named contributions (leakage, refs).

    ``contributions`` is an ordered tuple of ``(label, amperes)`` pairs
    summed left-to-right — one drain with three contributions reproduces
    the legacy ``(pad + ref) + bandgap`` float grouping, which three
    separate drains would not.
    """

    kind: ClassVar[str] = "drain"

    contributions: Tuple[Tuple[str, float], ...] = ()
    gate: Optional[str] = None
    i_leak_off: float = 0.0

    def total(self) -> float:
        """The summed standing current, amperes."""
        i_total = 0.0
        for _, amps in self.contributions:
            i_total = i_total + amps
        return i_total


@dataclasses.dataclass(frozen=True)
class LoadTapSpec(ComponentSpec):
    """Where a subsystem channel draws its current from the graph.

    ``v_rail`` is the delivery voltage used for the channel's
    attribution (``p = v_rail * i_load``); it must equal the parent
    rail's nominal output.
    """

    kind: ClassVar[str] = "load-tap"

    channel: str = "mcu"
    v_rail: float = 2.2


_COMPONENT_KINDS = {
    cls.kind: cls
    for cls in (
        SourceSpec, ChargePumpSpec, ScConverterSpec, LdoSpec, ShuntSpec,
        SwitchSpec, DrainSpec, LoadTapSpec,
    )
}

#: Kinds that may carry children (everything but taps and drains).
_RAIL_KINDS = ("source", "charge-pump", "sc-converter", "ldo", "shunt",
               "switch")


def component_to_dict(component) -> Dict:
    """Serialize one component spec to a JSON-compatible dict."""
    payload: Dict = {"kind": component.kind}
    for field in dataclasses.fields(component):
        value = getattr(component, field.name)
        if isinstance(value, tuple):
            value = [list(item) if isinstance(item, tuple) else item
                     for item in value]
        payload[field.name] = value
    return payload


def component_from_dict(payload: Mapping):
    """Rebuild a component spec from :func:`component_to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _COMPONENT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown rail component kind {kind!r}; valid kinds: "
            f"{', '.join(sorted(_COMPONENT_KINDS))}"
        )
    for field in dataclasses.fields(cls):
        value = data.get(field.name)
        if isinstance(value, list):
            data[field.name] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad fields for rail component kind {kind!r}: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# The graph spec
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RailGraphSpec:
    """A frozen, validated power-train topology.

    ``components[0]`` must be the single :class:`SourceSpec`; every other
    component's ``parent`` must name an earlier rail-carrying component
    (declaration order doubles as the deterministic solve order), and
    each of the four subsystem :data:`CHANNELS` must be tapped exactly
    once so any registered topology can power a full node.
    """

    name: str
    description: str
    components: Tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("rail graph needs a non-empty name")
        if not self.components or not isinstance(
            self.components[0], SourceSpec
        ):
            raise ConfigurationError(
                f"{self.name}: components must start with the SourceSpec"
            )
        seen: Dict[str, object] = {}
        channels: List[str] = []
        for index, comp in enumerate(self.components):
            if index > 0 and isinstance(comp, SourceSpec):
                raise ConfigurationError(
                    f"{self.name}: more than one source ({comp.name!r})"
                )
            if not comp.name:
                raise ConfigurationError(
                    f"{self.name}: component #{index} has an empty name"
                )
            if comp.name in seen:
                raise ConfigurationError(
                    f"{self.name}: duplicate component name {comp.name!r}"
                )
            if index > 0:
                parent = seen.get(comp.parent)
                if parent is None:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} parent "
                        f"{comp.parent!r} is not an earlier component"
                    )
                if parent.kind not in _RAIL_KINDS:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} hangs off "
                        f"{comp.parent!r} ({parent.kind}), which carries "
                        f"no rail"
                    )
            if isinstance(comp, LoadTapSpec):
                if comp.channel not in CHANNELS:
                    raise ConfigurationError(
                        f"{self.name}: {comp.name!r} taps unknown channel "
                        f"{comp.channel!r}; channels: {', '.join(CHANNELS)}"
                    )
                channels.append(comp.channel)
            if isinstance(comp, DrainSpec):
                for label, amps in comp.contributions:
                    if not label or amps < 0.0 or not math.isfinite(amps):
                        raise ConfigurationError(
                            f"{self.name}: drain {comp.name!r} has a bad "
                            f"contribution ({label!r}, {amps!r})"
                        )
            seen[comp.name] = comp
        for channel in CHANNELS:
            count = channels.count(channel)
            if count != 1:
                raise ConfigurationError(
                    f"{self.name}: channel {channel!r} must be tapped "
                    f"exactly once, found {count} taps"
                )

    @property
    def source(self) -> SourceSpec:
        """The graph's energy source."""
        return self.components[0]

    def gate_names(self) -> Tuple[str, ...]:
        """Gate groups in first-appearance order."""
        names: List[str] = []
        for comp in self.components[1:]:
            gate = getattr(comp, "gate", None)
            if gate and gate not in names:
                names.append(gate)
        return tuple(names)

    def tap(self, channel: str) -> LoadTapSpec:
        """The load tap serving ``channel``."""
        for comp in self.components:
            if isinstance(comp, LoadTapSpec) and comp.channel == channel:
                return comp
        raise ConfigurationError(
            f"{self.name}: no load tap for channel {channel!r}"
        )

    def to_dict(self) -> Dict:
        """JSON-compatible serialization (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "components": [component_to_dict(c) for c in self.components],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RailGraphSpec":
        """Rebuild a validated spec from :meth:`to_dict` output."""
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            components=tuple(
                component_from_dict(c) for c in payload["components"]
            ),
        )


# ---------------------------------------------------------------------------
# The runtime graph and its solver
# ---------------------------------------------------------------------------


class FrozenMapping(MappingABC):
    """An immutable, insertion-ordered, picklable mapping.

    :attr:`GraphSolution.component_i_in` is shared through memo caches, so
    handing callers a plain ``dict`` would let any of them corrupt every
    later reader.  ``types.MappingProxyType`` would also freeze it but
    cannot cross a process-pool boundary; this tuple-reducible wrapper
    pickles fine.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Union[Mapping, Tuple, List] = ()) -> None:
        self._data = dict(data)

    @classmethod
    def _adopt(cls, data: Dict) -> "FrozenMapping":
        """Wrap ``data`` without copying (caller must drop its reference)."""
        self = cls.__new__(cls)
        self._data = data
        return self

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMapping):
            return self._data == other._data
        if isinstance(other, (dict, MappingABC)):
            return self._data == dict(other)
        return NotImplemented

    __hash__ = None  # mutable values (arrays) may live inside

    def __reduce__(self):
        return (FrozenMapping, (tuple(self._data.items()),))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrozenMapping({self._data!r})"


@dataclasses.dataclass(frozen=True)
class GraphSolution:
    """One quasi-static solve of a rail graph."""

    v_source: float
    i_source: float
    #: Input-side current contributed by every component, by name (after
    #: any per-component degradation; gated-off components show leakage).
    #: Immutable: solutions are shared through memo caches.
    component_i_in: Mapping[str, float]

    @property
    def p_source(self) -> float:
        """Total power leaving the source, watts."""
        return self.v_source * self.i_source


@dataclasses.dataclass(frozen=True, eq=False)
class GraphSolutionBatch:
    """A vectorized solve of one rail graph over a batch of points.

    Shapes are ``(n,)`` along the batch axis.  Values are bitwise equal
    to the scalar :class:`GraphSolution` of each point.
    """

    v_source: np.ndarray
    i_source: np.ndarray
    #: Input-side current array per component (immutable mapping; the
    #: arrays themselves must be treated as read-only).
    component_i_in: Mapping[str, np.ndarray]

    @property
    def p_source(self) -> np.ndarray:
        """Per-point power leaving the source, watts."""
        return self.v_source * self.i_source

    def __len__(self) -> int:
        return int(self.i_source.shape[0])

    def point(self, index: int) -> GraphSolution:
        """The scalar :class:`GraphSolution` view of one batch point."""
        return GraphSolution(
            v_source=float(self.v_source[index]),
            i_source=float(self.i_source[index]),
            component_i_in=FrozenMapping._adopt({
                name: float(arr[index])
                for name, arr in self.component_i_in.items()
            }),
        )


class KernelTable:
    """One graph's compiled-kernel state (see :mod:`repro.power.compile`).

    Float kernels by the ``open_gates`` value they serve, batch kernels
    by gate signature, constant load arrays, and kernel workspaces by
    batch shape.  Never pickled; ``clear_kernel_cache()`` empties every
    live table.
    """

    __slots__ = ("floats", "batches", "loads", "workspaces", "__weakref__")

    #: Every live table (weakly held, so graphs stay collectable).
    live: ClassVar["weakref.WeakSet[KernelTable]"] = weakref.WeakSet()

    def __init__(self) -> None:
        self.clear()
        KernelTable.live.add(self)

    def clear(self) -> None:
        self.floats: Dict[Any, CompiledKernel] = {}
        self.batches: Dict[tuple, CompiledKernel] = {}
        self.loads: Dict[tuple, np.ndarray] = {}
        self.workspaces: Dict[tuple, Workspace] = {}


class RailGraph:
    """Executable form of a :class:`RailGraphSpec`.

    Builds one converter model per component spec (deterministically —
    equal specs give bit-identical converters) and walks the DAG on each
    :meth:`solve`.
    """

    #: Dispatch tags for the precomputed solve plan.
    _TAP, _DRAIN, _SWITCH, _CONVERT = range(4)

    def __init__(self, spec: RailGraphSpec) -> None:
        self.spec = spec
        self._children: Dict[str, List[ComponentSpec]] = {
            comp.name: [] for comp in spec.components
        }
        for comp in spec.components[1:]:
            self._children[comp.parent].append(comp)
        self._taps: Dict[str, LoadTapSpec] = {
            comp.channel: comp
            for comp in spec.components
            if isinstance(comp, LoadTapSpec)
        }
        self._converters: Dict[str, object] = {}
        for comp in spec.components:
            converter = self._build(comp)
            if converter is not None:
                self._converters[comp.name] = converter
        # Solve runs at every load-changing event, so the walk dispatches
        # on a prebuilt plan (drain totals and tap voltages included)
        # rather than re-inspecting specs; the arithmetic is unchanged.
        self._tap_v: Dict[str, float] = {
            channel: tap.v_rail for channel, tap in self._taps.items()
        }
        self._child_names: Dict[str, Tuple[str, ...]] = {
            name: tuple(child.name for child in kids)
            for name, kids in self._children.items()
        }
        self._plan: Dict[str, tuple] = {}
        for comp in spec.components[1:]:
            if isinstance(comp, LoadTapSpec):
                entry = (self._TAP, comp.channel)
            elif isinstance(comp, DrainSpec):
                entry = (self._DRAIN, comp.total())
            elif isinstance(comp, SwitchSpec):
                entry = (self._SWITCH, None)
            else:
                entry = (self._CONVERT,
                         (comp.v_out, self._converters[comp.name]))
            self._plan[comp.name] = (
                getattr(comp, "gate", None),
                getattr(comp, "i_leak_off", 0.0),
                entry,
            )
        self._component_set = frozenset(
            comp.name for comp in spec.components
        )
        self._gate_names = spec.gate_names()
        self._gate_set = frozenset(self._gate_names)
        self._converter_list = tuple(self._converters.values())
        # Content hash of the plan, computed lazily by the kernel
        # compiler (repro.power.compile) and cached here; plain string,
        # so graphs stay picklable.
        self._kernel_plan_digest: Optional[str] = None
        self._kernels = KernelTable()

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_kernels"]  # exec'd kernels cannot pickle
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._kernels = KernelTable()

    @staticmethod
    def _build(comp):
        if isinstance(comp, ChargePumpSpec):
            return RegulatedChargePump(
                comp.name,
                v_out=comp.v_out,
                gains=comp.gains,
                i_quiescent=comp.i_quiescent,
                i_snooze=comp.i_snooze,
                snooze_load_threshold=comp.snooze_load_threshold,
                input_range=VoltageRange(
                    comp.v_in_min, comp.v_in_max, owner=comp.name
                ),
                headroom=comp.headroom,
            )
        if isinstance(comp, ScConverterSpec):
            return design_for_load(
                comp.name,
                rail_network(comp.network),
                v_in=comp.v_in_design,
                v_target=comp.v_out,
                i_load_max=comp.i_load_max,
                f_max=comp.f_max,
                margin=comp.margin,
                fsl_fraction=comp.fsl_fraction,
                tau_gate=comp.tau_gate,
                alpha_bottom_plate=comp.alpha_bottom_plate,
                i_controller=comp.i_controller,
                i_leak_off=comp.i_leak_off,
            )
        if isinstance(comp, LdoSpec):
            return LinearRegulator(
                comp.name,
                v_out=comp.v_out,
                dropout=comp.dropout,
                i_ground=comp.i_ground,
                i_shutdown=comp.i_shutdown,
                i_max=comp.i_max,
            )
        if isinstance(comp, ShuntSpec):
            return ShuntRegulator(
                comp.name,
                v_out=comp.v_out,
                r_series=comp.r_series,
                i_bias_min=comp.i_bias_min,
            )
        return None

    # -- inspection --------------------------------------------------------

    def tap_voltage(self, channel: str) -> float:
        """Nominal delivery voltage of a subsystem channel."""
        try:
            return self._tap_v[channel]
        except KeyError:
            raise ConfigurationError(
                f"{self.spec.name}: no load tap for channel {channel!r}"
            ) from None

    def component(self, name: str):
        """The underlying converter model for ``name`` (None for leaves)."""
        return self._converters.get(name)

    def component_names(self) -> Tuple[str, ...]:
        """All component names in declaration (solve) order."""
        return tuple(comp.name for comp in self.spec.components)

    def describe(self) -> str:
        """A deterministic text rendering of the topology tree."""
        lines = [f"{self.spec.name}: {self.spec.description}"]

        def visit(comp, depth: int) -> None:
            lines.append(f"{'  ' * depth}- {self._label(comp)}")
            for child in self._children[comp.name]:
                visit(child, depth + 1)

        visit(self.spec.source, 0)
        return "\n".join(lines)

    @staticmethod
    def _label(comp) -> str:
        gate = getattr(comp, "gate", None)
        gated = f", gate={gate}" if gate else ""
        if isinstance(comp, SourceSpec):
            return f"{comp.name} (source)"
        if isinstance(comp, LoadTapSpec):
            return (f"{comp.name} (load-tap: {comp.channel} @ "
                    f"{comp.v_rail} V)")
        if isinstance(comp, DrainSpec):
            labels = ", ".join(label for label, _ in comp.contributions)
            return f"{comp.name} (drain: {labels}{gated})"
        if isinstance(comp, SwitchSpec):
            return f"{comp.name} (switch{gated})"
        return f"{comp.name} ({comp.kind} -> {comp.v_out} V{gated})"

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        v_source: float,
        loads: Mapping[str, float],
        open_gates: FrozenSet[str] = frozenset(),
        degradation: Optional[Mapping[str, float]] = None,
    ) -> GraphSolution:
        """Quasi-static source current for one operating point.

        ``loads`` maps channel names to amperes (missing channels draw
        zero); ``open_gates`` is a collection of the gate group names
        currently conducting (not a string or a mapping; names the graph
        does not define are inert); ``degradation`` multiplies named
        components' input currents (its keys must name graph components,
        its values be finite numbers).  Raises
        :class:`~repro.errors.ElectricalError` (from the component
        models) when any stage is out of its operating envelope.  Served
        by a float kernel verified against :meth:`solve_reference`, whose
        results and errors it returns bit for bit.
        """
        self._check_inputs(loads, open_gates, degradation)
        names, values = self._solve_currents(
            v_source, *[loads.get(channel, 0.0) for channel in CHANNELS],
            open_gates, degradation or {})
        return GraphSolution(v_source, values[0], FrozenMapping._adopt(
            dict(zip(names, values[1:]))))

    def solve_reference(self, v_source, loads, open_gates=frozenset(),
                        degradation=None) -> GraphSolution:
        """:meth:`solve` by walking the dispatch plan: the one definition
        of a solve, pinned by the 440 float-hex goldens; every compiled
        kernel is verified bitwise against it."""
        self._check_inputs(loads, open_gates, degradation)
        currents: Dict[str, float] = {}
        i_source = self._walk_children(self.spec.source.name, v_source,
                                       loads, open_gates, degradation or {},
                                       currents)
        return GraphSolution(v_source, i_source,
                             FrozenMapping._adopt(currents))

    def _check_inputs(self, loads: Mapping, open_gates, degradation) -> None:
        for channel, amps in loads.items():
            if channel not in self._taps:
                raise ConfigurationError(
                    f"{self.spec.name}: load on untapped channel "
                    f"{channel!r}"
                )
            if not math.isfinite(amps) or amps < 0.0:
                raise ConfigurationError(
                    f"{self.spec.name}: load {channel!r} must be finite "
                    f"and >= 0, got {amps!r}"
                )
        self._check_gates(open_gates)
        if degradation:
            self._check_degradation_keys(degradation)
            self._check_degradation_factors(degradation)

    def _solve_currents(self, v_source, i_mcu, i_sensor, i_radio_digital,
                        i_radio_rf, open_gates, degradation):
        """The point solve behind :meth:`solve` and the node's train, on
        validated inputs: ``(names, (i_source, *currents))`` in walk
        order.  A promoted kernel answers with no counter or lock;
        anything else takes the compiler's slow path."""
        entry = self._promoted_kernel(open_gates)
        if entry is not None:
            try:
                values = entry.fn(v_source, i_mcu, i_sensor,
                                  i_radio_digital, i_radio_rf,
                                  degradation or None)
            except Exception:
                values = None
            if values is not None:
                return entry.names, values
        return _compile_module().solve_point_slow(
            self, entry, v_source, i_mcu, i_sensor, i_radio_digital,
            i_radio_rf, open_gates, degradation,
        )

    def _promoted_kernel(self, open_gates) -> Optional[CompiledKernel]:
        """The verified float kernel that may answer a point solve at
        ``open_gates``, or ``None`` when :meth:`_solve_currents` must
        take the slow path (no kernel yet, unverified or retired, or a
        converter disabled).  A ``None`` from the kernel's call still
        goes to :meth:`_solve_currents`."""
        try:
            entry = self._kernels.floats[open_gates]
        except (KeyError, TypeError):
            return None
        if not entry.verified or entry.failed:
            return None
        for converter in self._converter_list:
            if not converter.enabled:
                return None
        return entry

    def _check_degradation_keys(self, degradation: Mapping) -> None:
        """Reject degradation entries that name no graph component.

        Mirrors ``GraphPowerTrain.set_component_degradation``: a typo'd
        component name must raise, not silently no-op.
        """
        for name in degradation:
            if name not in self._component_set:
                raise ConfigurationError(
                    f"{self.spec.name}: no component {name!r} to degrade; "
                    f"components: {', '.join(self.component_names())}"
                )

    def _check_degradation_factors(self, degradation: Mapping) -> None:
        """Reject a degradation factor that is not one finite number.

        Mirrors ``GraphPowerTrain.set_component_degradation``; a batch
        applies each factor to all of its points.
        """
        for name, factor in degradation.items():
            if type(factor) is not float \
                    and not isinstance(factor, numbers.Real):
                raise ConfigurationError(
                    f"{self.spec.name}: degradation factor for {name!r} "
                    f"must be a number, got {type(factor).__name__}"
                )
            if not math.isfinite(factor):
                raise ConfigurationError(
                    f"{self.spec.name}: degradation factor for {name!r} "
                    f"must be finite, got {factor!r}"
                )

    def _check_gates(self, open_gates) -> None:
        """Reject a gate input that is not a collection of gate names.

        A ``str`` (or ``bytes``) would read as its characters and a
        mapping as its keys, whatever its values say, so each raises on
        every solve path.
        """
        if type(open_gates) is not frozenset \
                and isinstance(open_gates, (str, bytes, MappingABC)):
            raise ConfigurationError(
                f"{self.spec.name}: open_gates must be a collection of "
                f"gate names, got {type(open_gates).__name__}"
            )

    def _require_gate(self, gate: str) -> None:
        """Reject a gate group name the spec does not define."""
        if gate not in self._gate_set:
            raise ConfigurationError(
                f"{self.spec.name}: no gate group {gate!r}; gates: "
                f"{', '.join(self.spec.gate_names()) or '(none)'}"
            )

    # -- the reference walk ------------------------------------------------

    def _walk_branch(self, name, v_in, loads, open_gates, degradation,
                     currents) -> float:
        gate, leak, (tag, arg) = self._plan[name]
        if gate is not None and gate not in open_gates:
            i_in = leak
        elif tag == self._TAP:
            i_in = loads.get(arg, 0.0)
        elif tag == self._DRAIN:
            i_in = arg
        elif tag == self._SWITCH:
            i_in = self._walk_children(name, v_in, loads, open_gates,
                                       degradation, currents)
        else:
            v_out, converter = arg
            i_load = self._walk_children(name, v_out, loads, open_gates,
                                         degradation, currents)
            i_in = converter.solve(v_in, i_load).i_in
        factor = degradation.get(name, 1.0)
        if factor != 1.0:
            i_in = i_in * factor
        currents[name] = i_in
        return i_in

    def _walk_children(self, name, v_rail, loads, open_gates, degradation,
                       currents) -> float:
        i_load = 0.0
        for child in self._child_names[name]:
            i_load = i_load + self._walk_branch(
                child, v_rail, loads, open_gates, degradation, currents
            )
        return i_load

    # -- batched solving ---------------------------------------------------

    def solve_batch(
        self,
        v_source,
        loads: Mapping,
        open_gates: FrozenSet[str] = frozenset(),
        degradation: Optional[Mapping[str, float]] = None,
    ) -> GraphSolutionBatch:
        """Vectorized :meth:`solve` over a batch of operating points.

        The solve runs through a fused straight-line kernel that
        :mod:`repro.power.compile` generates from the dispatch plan, so
        a sweep over thousands of (voltage, loads) points pays
        component arithmetic, not Python walk overhead.  Inputs:

        * ``v_source`` — scalar or ``(n,)`` array of source voltages;
        * ``loads`` — channel name to scalar or ``(n,)`` amperes;
        * ``open_gates`` — the gate names conducting at every point, as
          :meth:`solve` takes them;
        * ``degradation`` — component name to one finite multiplier for
          every point, as :meth:`solve` takes it.

        The voltage and loads broadcast along one batch axis.  The PicoCube
        switches its rails once per wake-cycle phase (paper §4.5), so a
        batch holds one gate state and one set of factors.

        The result is bitwise equal to a loop of :meth:`solve` calls,
        one per point: each kernel's first batch is checked against that
        loop, and anything a kernel cannot serve runs the loop itself.
        Errors are the loop's too: if any point is outside a component's
        operating envelope, the :class:`~repro.errors.ElectricalError`
        raised is the one :meth:`solve` raises at the lowest failing
        point.

        This is the one place raw batch inputs become kernel inputs.  A
        scalar is checked as a scalar and a 1-D float64 array with one
        min/max test; anything else goes through ``np.asarray`` first.
        """
        name = self.spec.name
        v = v_source
        if type(v) is not np.ndarray or v.dtype != _F64:
            v = np.asarray(v, dtype=np.float64)
        if v.ndim > 1:
            raise ConfigurationError(
                f"{name}: v_source must be a scalar or a 1-D batch, got "
                f"shape {v.shape}"
            )
        # Pass 1: convert the inputs (a scalar stays a float) and collect
        # their shapes, raising on a malformed input in argument order.
        shapes = [v.shape]
        values: Dict[str, Any] = {}
        for channel, amps in loads.items():
            if channel not in self._taps:
                raise ConfigurationError(
                    f"{name}: load on untapped channel {channel!r}"
                )
            if type(amps) is float or type(amps) is int:
                amps = float(amps)
            else:
                amps = np.asarray(amps, dtype=np.float64)
                if amps.ndim > 1:
                    raise ConfigurationError(
                        f"{name}: load {channel!r} must be a scalar or a "
                        f"1-D batch, got shape {amps.shape}"
                    )
                if amps.ndim == 0:
                    amps = float(amps)
            shapes.append(() if type(amps) is float else amps.shape)
            values[channel] = amps
        distinct = set(shapes)
        distinct.discard(())
        if len(distinct) == 1:
            shape = distinct.pop()
        elif not distinct:
            shape = (1,)
        else:
            try:
                shape = np.broadcast_shapes(*shapes)
            except ValueError:
                raise ConfigurationError(
                    f"{name}: batch inputs do not broadcast: "
                    f"{[tuple(s) for s in shapes]}"
                ) from None
        if v.shape != shape:
            v = np.broadcast_to(v, shape)
        # Pass 2: validate and build the kernel inputs on the batch shape.
        size = shape[0]
        kernel_loads: Dict[str, np.ndarray] = {}
        for channel, amps in values.items():
            if isinstance(amps, np.ndarray):
                arr = amps if amps.shape == shape \
                    else np.broadcast_to(amps, shape)
                if size and not (arr.min() >= 0.0
                                 and arr.max() < math.inf):
                    bad = ~np.isfinite(arr) | (arr < 0.0)
                    index = int(np.argmax(bad))
                    self._reject_load(channel, float(arr[index]), index)
            else:
                if size and not 0.0 <= amps < math.inf:
                    self._reject_load(channel, amps, 0)
                arr = self._constant_load(channel, amps, shape)
            kernel_loads[channel] = arr
        if len(kernel_loads) != len(self._taps):
            zero = self._constant_load(None, 0.0, shape)
            for channel in self._taps:
                kernel_loads.setdefault(channel, zero)
        compiler = _compile_module()
        signature = compiler.resolve_gates(self, open_gates)
        factors: Dict[str, float] = {}
        if degradation:
            self._check_degradation_keys(degradation)
            self._check_degradation_factors(degradation)
            for component, factor in degradation.items():
                if factor != 1.0:
                    factors[component] = float(factor)
        return compiler.solve_batch_compiled(
            self, v, kernel_loads, signature, factors, shape
        )

    def _reject_load(self, channel: str, amps: float, index: int) -> None:
        raise ConfigurationError(
            f"{self.spec.name}: load {channel!r} must be finite and >= 0, "
            f"got {amps!r} at batch point {index}"
        )

    def _constant_load(self, channel: Optional[str], amps: float,
                       shape: tuple) -> np.ndarray:
        """A read-only ``shape`` array of ``amps``.  Constant loads recur
        every sweep step, so they are cached per graph (capped)."""
        loads = self._kernels.loads
        key = (channel, amps, shape)
        arr = loads.get(key)
        if arr is None:
            arr = np.full(shape, amps)
            arr.flags.writeable = False
            if len(loads) < 256:
                loads[key] = arr
        return arr

    def quiescent_current(self, v_source: float) -> float:
        """Standing source draw with zero loads and every gate closed."""
        return self.solve(v_source, {}).i_source
