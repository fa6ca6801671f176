"""Plan-compiled fused kernels for :meth:`RailGraph.solve_batch` and
scalar :meth:`RailGraph.solve`.

The batch solver would otherwise walk the precomputed dispatch plan in
interpreted Python: one dynamic dispatch, one gate check, and a handful
of short-lived temporaries per component per call.  At fleet scale
(``net/cohort.py``'s advance chain, ``sim/fleet_engine``,
``topology_sweep_campaign``) that walk overhead would dominate the
actual numpy arithmetic.  This module removes it by *compiling the
plan*:

* :func:`generate_kernel_source` turns a ``RailGraph``'s plan plus a
  **gate signature** (each gate group resolved to open or closed for the
  whole batch) into straight-line numpy source —
  the component loop unrolled, dispatch tags resolved at compile time,
  temporaries reused, and every envelope check hoisted into one
  vectorized ``_bad.any()`` pass;
* the source is ``exec``'d once and the resulting kernel is kept in a
  content-addressed table keyed on ``(plan hash, gate signature, code
  version, dialect)``, so every graph built from an equal spec shares
  one kernel per signature; each graph's
  :class:`~repro.power.graph.KernelTable` remembers the entries it uses;
* :func:`solve_batch_compiled` serves ``RailGraph.solve_batch`` (whose
  prologue turns raw batch inputs into kernel inputs) from those kernels;
* the same emitters also write a **float dialect** serving scalar
  ``RailGraph.solve`` (:func:`solve_point_slow` verifies and promotes
  those kernels).

**Bit-exactness contract.**  The reference walk
(:meth:`RailGraph.solve_reference`) and its 440 float-hex goldens are
the only reference: a batch kernel's result must be bitwise equal to a
loop of walk solves, one per batch point, and a float kernel's to one
walk solve.  The generated source replays the walk's operation
sequence exactly (declaration-order summation accumulating from a zeros
seed, cascades solved at the parent's nominal rail, squares as
multiplications, constants pre-folded only where scalar CPython folds
them).  The first batch each cached kernel serves is checked against
that walk loop at every point — ``i_source`` plus every component
current it reports.  A divergence permanently retires the kernel,
and every batch a kernel cannot serve (unsupported plan, disabled
converter, retired kernel, unexpected kernel error) is answered by the
walk loop itself.
:func:`kernel_metrics` counts each such fallback.

**Error semantics.**  Envelope checks are hoisted into one per-point
``_bad`` mask.  When ``_bad.any()``, the kernel raises and the lowest
flagged point is re-solved with the walk, which raises exactly the
:class:`~repro.errors.ElectricalError` a loop of solves would raise
first.

**Workspace.**  A batch kernel writes every temporary it does not return
(partial sums, gain selects, envelope masks) into reused buffers with
``out=`` instead of allocating a fresh array per operation: see
:mod:`repro.power.workspace`.  The buffers belong to one workspace per
``(graph, batch shape)``, shared by that graph's gate variants; returned
arrays are always freshly allocated, so no later call overwrites them.

This module is the **only** place in the tree allowed to call ``exec``
(lint rule DET004 enforces that); the generated source can be inspected
with ``python -m repro train --solve KIND --emit-kernel``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ElectricalError
from .charge_pump import RegulatedChargePump
from .graph import (
    CHANNELS,
    FrozenMapping,
    GraphSolution,
    GraphSolutionBatch,
    KernelTable,
    RailGraph,
)
from .linear_regulator import LinearRegulator
from .sc_converter import SwitchedCapacitorConverter
from .shunt_regulator import ShuntRegulator
from .workspace import Workspace, fill, lower_to_workspace, select

#: Bump when the generated source or the kernel signature changes: it
#: keys the kernel cache, so an old kernel is never called with a newer
#: argument list.
KERNEL_CODE_VERSION = 6

#: Gate-signature states: each gate group of a topology is resolved at
#: compile time to one of these, and one kernel is compiled per distinct
#: (topology, signature) pair.
GATE_OPEN = "open"
GATE_CLOSED = "closed"

#: Kernel dialects :func:`generate_kernel_source` writes: numpy batch
#: kernels behind ``solve_batch``, float point kernels behind ``solve``.
DIALECT_NUMPY = "numpy"
DIALECT_FLOAT = "float"

#: The float dialect's spelling of the emitters' numpy calls.
_FLOAT_CALLS = {"sqrt": "math.sqrt", "hypot": "math.hypot",
                "minimum": "min", "maximum": "max"}

__all__ = [
    "DIALECT_FLOAT",
    "DIALECT_NUMPY",
    "GATE_CLOSED",
    "GATE_OPEN",
    "KERNEL_CODE_VERSION",
    "CompiledKernel",
    "KernelMetrics",
    "KernelUnsupported",
    "clear_kernel_cache",
    "compiled_kernel_for",
    "generate_kernel_source",
    "iter_registered_kernel_sources",
    "kernel_metrics",
    "kernel_source",
    "reset_kernel_metrics",
    "resolve_gates",
    "solve_batch_compiled",
    "solve_point_slow",
]


class KernelUnsupported(Exception):
    """The plan contains a component this compiler has no emitter for."""


class _OutOfEnvelope(Exception):
    """Raised by a kernel whose hoisted envelope check flagged points."""

    def __init__(self, bad: np.ndarray) -> None:
        super().__init__("batch point outside a component's envelope")
        self.bad = bad


def _min_satisfying_v(scale: float, target: float) -> Optional[float]:
    """Smallest float ``x`` with ``fl(scale * x) >= target``, or ``None``.

    For ``scale > 0`` rounded multiplication is monotone over the
    floats, so the satisfying set is an interval ``[x_min, +inf]`` and a
    comparison against its exact boundary reproduces the product test
    bit-for-bit: ``v >= x_min`` iff ``fl(scale * v) >= target`` for
    every float ``v`` (NaN and infinities included).  The boundary is
    found by a short ``nextafter`` walk from the rounded quotient;
    ``None`` means the caller must emit the literal product instead.
    """
    if not (scale > 0.0 and target > 0.0
            and math.isfinite(scale) and math.isfinite(target)):
        return None
    x = target / scale
    if not (math.isfinite(x) and x > 0.0):
        return None
    for _ in range(8):
        if scale * x >= target:
            break
        x = math.nextafter(x, math.inf)
    else:
        return None
    for _ in range(8):
        lower = math.nextafter(x, -math.inf)
        if lower > 0.0 and scale * lower >= target:
            x = lower
        else:
            return x
    return None


@dataclasses.dataclass
class CompiledKernel:
    """A cached kernel: source, callable, and its verification state."""

    key: tuple
    source: str
    fn: Optional[Callable]
    #: True once a non-empty batch has compared bitwise-equal to the
    #: scalar loop; until then every call runs both.
    verified: bool = False
    #: True when the kernel is permanently out of service (unsupported
    #: plan, uncompilable source, or a bitwise mismatch); callers fall back.
    failed: bool = False
    failure: Optional[str] = None
    #: Float kernels: names of the returned currents (set on promotion).
    names: Tuple[str, ...] = ()


#: One kernel per (plan digest, gate signature, code version, dialect),
#: shared by every RailGraph built from an equal spec.
_KERNELS: Dict[tuple, CompiledKernel] = {}
_KERNELS_LOCK = threading.Lock()

_METRICS_LOCK = threading.Lock()
_METRICS: Dict[str, int] = {}


def _bump(name: str) -> None:
    with _METRICS_LOCK:
        _METRICS[name] = _METRICS.get(name, 0) + 1


@dataclasses.dataclass(frozen=True)
class KernelMetrics:
    """Snapshot of the compiled-path counters (see :func:`kernel_metrics`)."""

    #: Kernel sources ``exec``'d (cold compiles).
    compiles: int
    #: Batch solves served by a compiled kernel.
    kernel_solves: int
    #: First-use bitwise comparisons against the scalar loop.
    verifications: int
    #: Kernels retired for disagreeing with the scalar reference
    #: (diverged, raised, or flagged a point the scalar solve accepts).
    mismatches: int
    #: Solves answered by the scalar loop (unsupported plans, disabled
    #: converters, retired kernels, unexpected kernel errors).
    fallbacks: int
    #: Plans the compiler refused (no emitter / bad source).
    unsupported: int
    #: The same counts for the float kernels behind scalar ``solve``
    #: (the walk is their reference and their fallback).
    scalar_compiles: int
    scalar_verifications: int
    scalar_mismatches: int
    scalar_fallbacks: int
    scalar_unsupported: int


def kernel_metrics() -> KernelMetrics:
    """Current process-wide compiled-path counters."""
    with _METRICS_LOCK:
        return KernelMetrics(**{
            field.name: _METRICS.get(field.name, 0)
            for field in dataclasses.fields(KernelMetrics)
        })


def reset_kernel_metrics() -> None:
    """Zero the counters (test isolation)."""
    with _METRICS_LOCK:
        _METRICS.clear()


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (they recompile on next use)."""
    with _KERNELS_LOCK:
        _KERNELS.clear()
    for table in list(KernelTable.live):
        table.clear()


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def resolve_gates(graph: RailGraph, open_gates) -> tuple:
    """The gate signature of a collection of open gate names.

    The signature holds each of the graph's gates, in plan order, with
    :data:`GATE_OPEN` when ``open_gates`` names it and :data:`GATE_CLOSED`
    otherwise; names the graph does not define are inert, as in the
    walk.  A string or a mapping raises
    :class:`~repro.errors.ConfigurationError`.
    """
    graph._check_gates(open_gates)
    open_gates = frozenset(open_gates)
    return tuple((gate, GATE_OPEN if gate in open_gates else GATE_CLOSED)
                 for gate in graph._gate_names)


def generate_kernel_source(graph: RailGraph, signature: tuple,
                           dialect: str = DIALECT_NUMPY) -> str:
    """Emit straight-line fused source for one (plan, signature) pair.

    Raises :class:`KernelUnsupported` when the plan holds a converter
    type this compiler has no emitter for.

    :data:`DIALECT_FLOAT` writes ``_float_kernel(v, i_mcu, i_sensor,
    i_radio_digital, i_radio_rf, factors)`` on plain floats: numpy calls
    spelled as the converter models' own, an early ``return None`` per
    envelope test, else ``(i_source, *currents)`` in walk order.  The
    numpy dialect's body is then lowered onto a workspace
    (:func:`repro.power.workspace.lower_to_workspace`).

    The emitted operation sequence replays the scalar walk exactly (see
    the module docstring), with two safe strengthenings: scalar
    constants that the scalar walk computes with CPython float
    arithmetic are pre-folded at codegen time using the *same* CPython
    operations, and per-stage envelope masks are OR-merged into a single
    hoisted ``_bad.any()`` check that raises :class:`_OutOfEnvelope`
    with the mask of failing points.
    """
    scalar = dialect == DIALECT_FLOAT
    states = dict(signature)
    comp_kind = {comp.name: comp.kind for comp in graph.spec.components}
    lines: List[str] = []
    order: List[Tuple[str, str]] = []       # currents insertion order
    counter = [0]
    bad_seen = [False]
    uses_errstate = [False]
    deferred_rails: List[Tuple[int, str, float]] = []

    def new(prefix: str) -> str:
        counter[0] += 1
        return f"_{prefix}{counter[0]}"

    def emit(text: str, depth: int = 0) -> None:
        lines.append("    " * (2 + depth) + text)

    def const_array(value: float) -> str:
        """An expression filling the batch shape with ``value``.

        ``_z + value`` reproduces ``np.full(shape, value)`` bitwise
        (IEEE ``0.0 + x == x``) at less than half the cost — except for
        ``-0.0`` and NaN payloads, which keep the literal ``np.full``.
        A plain zero is the zeros seed itself (a float kernel's constant
        is its literal).
        """
        if scalar:
            return repr(value) if math.isfinite(value) else f"float('{value}')"
        if value != value or (value == 0.0
                              and math.copysign(1.0, value) < 0.0):
            return f"_np.full(shape, {value!r})"
        if value == 0.0:
            return "_z"
        return f"_z + {value!r}"

    def where(cond: str, a: str, b: str) -> str:
        return f"({a} if {cond} else {b})" if scalar \
            else f"_np.where({cond}, {a}, {b})"

    def call(fn: str, *args: str) -> str:
        name = _FLOAT_CALLS[fn] if scalar else f"_np.{fn}"
        return f"{name}({', '.join(args)})"

    def flag(bad: str) -> None:
        # One stage's envelope mask, merged into the hoisted _bad.  A
        # float kernel returns None instead: the walk raises there.
        if scalar:
            emit(f"if {bad}:")
            emit("return None", depth=1)
            return
        if not bad_seen[0]:
            bad_seen[0] = True
            emit(f"_bad = {bad}")
        else:
            emit(f"_bad = _bad | {bad}")

    def emit_charge_pump(name, conv, v_expr, s_var, v_const):
        bad = new("b")
        rng = conv.input_range
        emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} < {rng.minimum!r})")
        emit(f"{bad} |= {v_expr} > {rng.maximum!r}")
        if scalar or (math.isfinite(rng.minimum)
                      and math.isfinite(rng.maximum)):
            # With a finite window the +-inf cases are already caught by
            # the range comparisons; only NaN needs the extra term, and
            # a self-compare is cheaper than invert-isfinite.  (A float
            # kernel keeps the model's own rule, which rejects only NaN.)
            emit(f"{bad} |= {v_expr} != {v_expr}")
        else:
            emit(f"{bad} |= ~_np.isfinite({v_expr})")
        gain = new("g")
        threshold = conv.v_out + conv.headroom
        gains = list(conv.gains)  # ascending: smallest workable wins
        bounds = [_min_satisfying_v(cand, threshold) for cand in gains]
        ascending = all(a < b for a, b in zip(gains, gains[1:]))
        if gains and ascending and all(b is not None for b in bounds):
            # The hop chain picks the smallest gain whose boosted rail
            # clears threshold; with each product test collapsed to its
            # exact voltage boundary (see _min_satisfying_v) the same
            # selection is two ops per gain instead of five.
            tail = "0.0"
            for cand, bound in list(zip(gains, bounds))[::-1]:
                emit(f"{gain} = "
                     f"{where(f'{v_expr} >= {bound!r}', repr(cand), tail)}")
                tail = gain
        else:
            emit(f"{gain} = {'0.0' if scalar else '_np.zeros(shape)'}")
            for cand in gains:
                test = (f"({gain} == 0.0) & ({cand!r} * {v_expr} >= "
                        f"{threshold!r})")
                emit(f"{gain} = {where(test, repr(cand), gain)}")
        emit(f"{bad} = {bad} | ({gain} == 0.0)")
        flag(bad)
        house = new("h")
        emit(f"{house} = " + where(
            f"{s_var} <= {conv.snooze_load_threshold!r}",
            repr(conv.i_snooze), repr(conv.i_quiescent)))
        i_var = new("i")
        emit(f"{i_var} = {gain} * {s_var} + {house}")
        return i_var

    def emit_sc_converter(name, conv, v_expr, s_var, v_const):
        # Only the SC stage divides/sqrts through possibly-invalid
        # intermediates (at points the scalar walk would reject or never
        # visit); plans without one skip the errstate context.
        uses_errstate[0] = True
        bad = new("b")
        emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} <= 0.0)")
        v_ideal = new("vi")
        emit(f"{v_ideal} = {conv.ratio!r} * {v_expr}")
        emit(f"{bad} |= {v_ideal} <= {conv.v_target!r}")
        loaded = new("ld")
        emit(f"{loaded} = {s_var} > 0.0")
        r_fsl = conv.r_fsl
        cap_sq = conv.analysis.cap_multiplier_sum ** 2
        i_safe = new("is")
        emit(f"{i_safe} = {where(loaded, s_var, '1.0')}")
        r_needed = new("rn")
        emit(f"{r_needed} = ({v_ideal} - {conv.v_target!r}) / {i_safe}")
        emit(f"{bad} |= {loaded} & ({r_needed} <= {r_fsl!r})")
        r_gap = new("rg")
        emit(f"{r_gap} = {r_needed} * {r_needed} - {r_fsl ** 2!r}")
        r_ssl = new("rs")
        emit(f"{r_ssl} = "
             f"{call('sqrt', where(f'{r_gap} > 0.0', r_gap, '1.0'))}")
        f_sw = new("fs")
        emit(f"{f_sw} = {cap_sq!r} / ({conv.c_total!r} * {r_ssl})")
        emit(f"{f_sw} = " + call("minimum", call(
            "maximum", f_sw, repr(conv.f_min)), repr(conv.f_max)))
        emit(f"{f_sw} = {where(loaded, f_sw, repr(conv.f_min))}")
        r_out = new("ro")
        emit(f"{r_out} = " + call(
            "hypot", f"{cap_sq!r} / ({conv.c_total!r} * {f_sw})",
            repr(r_fsl)))
        v_sag = new("vs")
        emit(f"{v_sag} = {v_ideal} - {s_var} * {r_out}")
        emit(f"{bad} |= {loaded} & ({v_sag} < {conv.v_target - 1e-9!r})")
        flag(bad)
        v_sq = new("vv")
        emit(f"{v_sq} = {v_expr} * {v_expr}")
        p_gate = new("pg")
        emit(f"{p_gate} = {f_sw} * {conv.g_total!r} * {conv.tau_gate!r} "
             f"* {v_sq}")
        p_bottom = new("pb")
        emit(f"{p_bottom} = {f_sw} * {conv.alpha_bottom_plate!r} * "
             f"{conv.c_total!r} * {v_sq}")
        i_var = new("i")
        emit(f"{i_var} = {conv.ratio!r} * {s_var} + ({p_gate} + {p_bottom})"
             f" / {v_expr} + {conv.i_controller!r}")
        return i_var

    def emit_ldo(name, conv, v_expr, s_var, v_const):
        # Under a converter rail the input voltage is one compile-time
        # constant at every point (the scalar walk passes the nominal
        # rail), so its window comparison folds to a scalar bool: OR-ing
        # a Python bool into a bool array is elementwise-identical to
        # OR-ing the comparison of the broadcast rail.
        bad = new("b")
        v_min = conv.minimum_input_voltage()
        if v_const is None:
            emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} < {v_min!r})")
        elif v_const < v_min:
            emit(f"{bad} = ({s_var} < 0.0) | True")
        else:
            emit(f"{bad} = {s_var} < 0.0")
        emit(f"{bad} |= {s_var} > {conv.i_max!r}")
        flag(bad)
        i_var = new("i")
        emit(f"{i_var} = {s_var} + {conv.i_ground!r}")
        return i_var

    def emit_shunt(name, conv, v_expr, s_var, v_const):
        bad = new("b")
        supply = new("sup")
        if v_const is None:
            emit(f"{bad} = ({s_var} < 0.0) | ({v_expr} <= {conv.v_out!r})")
            emit(f"{supply} = ({v_expr} - {conv.v_out!r}) / "
                 f"{conv.r_series!r}")
            supply_expr = supply
        else:
            # Constant-rail fold (see emit_ldo): headroom test and the
            # supply current collapse to scalars computed with the same
            # IEEE operations the broadcast rail would run elementwise.
            if v_const <= conv.v_out:
                emit(f"{bad} = ({s_var} < 0.0) | True")
            else:
                emit(f"{bad} = {s_var} < 0.0")
            supply_const = (v_const - conv.v_out) / conv.r_series
            emit(f"{supply} = {const_array(supply_const)}")
            supply_expr = repr(supply_const)
        shunted = new("sh")
        emit(f"{shunted} = {supply_expr} - {s_var}")
        emit(f"{bad} |= {shunted} < {conv.i_bias_min!r}")
        flag(bad)
        i_var = new("i")
        emit(f"{i_var} = {supply}")
        return i_var

    _EMITTERS = (
        (RegulatedChargePump, emit_charge_pump),
        (SwitchedCapacitorConverter, emit_sc_converter),
        (LinearRegulator, emit_ldo),
        (ShuntRegulator, emit_shunt),
    )

    def emit_converter(name, conv, v_expr, s_var, v_const):
        for cls, emitter in _EMITTERS:
            if isinstance(conv, cls):
                return emitter(name, conv, v_expr, s_var, v_const)
        raise KernelUnsupported(
            f"{graph.spec.name}: no fused emitter for "
            f"{type(conv).__name__} ({name!r})"
        )

    # Hoisted per-call bindings: the shared zeros seed and one local per
    # tapped channel.  A float kernel takes each load as a parameter and
    # seeds sums with 0.0.
    zero = "0.0" if scalar else "_z"
    load_vars: Dict[str, str] = {}
    if not scalar:
        emit("_z = _np.zeros(shape)")
    for channel in graph._taps:
        var = "_L_" + channel.replace("-", "_")
        load_vars[channel] = var.replace("_L", "i", 1) if scalar else var
        if not scalar:
            emit(f"{var} = loads[{channel!r}]")

    def branch(name: str, v_expr: str, v_const: Optional[float]) -> str:
        gate, leak, (tag, arg) = graph._plan[name]
        emit(f"# {name} ({comp_kind[name]})")
        if states.get(gate) == GATE_CLOSED:
            i_var = new("i")
            emit(f"{i_var} = {const_array(leak)}")
        elif tag == RailGraph._TAP:
            i_var = new("i")
            emit(f"{i_var} = {load_vars[arg]}")
        elif tag == RailGraph._DRAIN:
            i_var = new("i")
            emit(f"{i_var} = {const_array(arg)}")
        elif tag == RailGraph._SWITCH:
            i_var = child_sum(name, v_expr, v_const)
        else:
            v_out, converter = arg
            v_rail = new("vr")
            # The nominal-rail array is only materialized when some
            # descendant expression actually reads it — resolved after
            # the whole body is emitted.
            rail_at = len(lines)
            s_var = child_sum(name, v_rail, v_out)
            i_var = emit_converter(name, converter, v_expr, s_var, v_const)
            deferred_rails.append((rail_at, v_rail, v_out))
        factor = new("f")
        if scalar:  # the walk's rule, on the caller's mapping
            emit("if factors is not None:")
            emit(f"{factor} = factors.get({name!r}, 1.0)", depth=1)
            emit(f"if {factor} != 1.0:", depth=1)
            emit(f"{i_var} = {i_var} * {factor}", depth=2)
        else:
            emit(f"{factor} = factors.get({name!r})")
            emit(f"if {factor} is not None:")
            emit(f"{i_var} = {i_var} * {factor}", depth=1)
        order.append((name, i_var))
        return i_var

    def child_sum(name: str, v_expr: str, v_const: Optional[float]) -> str:
        s_var = new("s")
        children = graph._child_names[name]
        if not children:
            emit(f"{s_var} = {zero}")
            return s_var
        for index, child in enumerate(children):
            c_var = branch(child, v_expr, v_const)
            seed = zero if index == 0 else s_var
            emit(f"{s_var} = {seed} + {c_var}")
        return s_var

    for index, child in enumerate(
        graph._child_names[graph.spec.source.name]
    ):
        c_var = branch(child, "v", None)
        seed = zero if index == 0 else "_i_src"
        emit(f"_i_src = {seed} + {c_var}")

    if scalar:
        emit("return " + ", ".join(["_i_src"] + [var for _, var in order]))
    else:
        if bad_seen[0]:
            emit("if _bad.any():")
            emit("raise _OutOfEnvelope(_bad)", depth=1)
        currents = ", ".join(f"{name!r}: {var}" for name, var in order)
        emit(f"return _i_src, {{{currents}}}")

    # Materialize only the nominal-rail arrays some later line reads (a
    # converter whose children are all taps, closed gates, or
    # constant-rail folds never touches its rail).  Reverse order keeps
    # earlier insert points valid while later insertions shift down.
    for rail_at, v_rail, v_out in sorted(deferred_rails, reverse=True):
        pattern = re.compile(re.escape(v_rail) + r"\b")
        if any(pattern.search(line) for line in lines[rail_at:]):
            lines.insert(rail_at,
                         "    " * 2 + f"{v_rail} = {const_array(v_out)}")
    if not scalar:
        lines = lower_to_workspace(lines)

    sig_text = ", ".join(f"{gate}={state}" for gate, state in signature)
    params = ", ".join("i_" + c.replace("-", "_") for c in CHANNELS)
    header = [
        f'"""Fused {"float" if scalar else "solve_batch"} kernel: topology '
        f'{graph.spec.name!r}, gates [{sig_text or "none"}], '
        f'code version {KERNEL_CODE_VERSION}."""',
        f"def _float_kernel(v, {params}, factors):" if scalar
        else "def _kernel(v, loads, factors, shape, work, _np=np):",
    ]
    if uses_errstate[0] and not scalar:
        header.append('    with _np.errstate(divide="ignore", '
                      'invalid="ignore", over="ignore"):')
    else:
        lines = [line[4:] for line in lines]
    return "\n".join(header + lines) + "\n"


def kernel_source(graph: RailGraph, open_gates=frozenset(),
                  dialect: str = DIALECT_NUMPY) -> str:
    """The generated kernel source for a graph under a gate state.

    Debugging/inspection entry point (``--emit-kernel`` on the CLI):
    pure codegen, no caching, no ``exec``.  ``open_gates`` is a
    collection of open gate names, as :meth:`RailGraph.solve_batch` takes.
    """
    return generate_kernel_source(graph, resolve_gates(graph, open_gates),
                                  dialect)


def iter_registered_kernel_sources():
    """Every kernel this compiler can emit for the registered topologies.

    Yields ``(kind, signature, source, failure)`` for each registered
    rail topology crossed with every open/closed gate combination, batch
    dialect then float dialect — the full space the runtime kernel cache
    can ever hold.  The two dialects define differently named kernel
    functions (``_kernel`` and ``_float_kernel``).  The lint kernel
    auditor (``repro lint --kernels``) parses each emitted source and
    checks its hygiene; keeping enumeration here means the auditor
    never has to know how plans, signatures, or gates are spelled.

    Pure codegen: no caching, no ``exec``.  ``failure`` is ``None`` for
    an emitted kernel; a plan the compiler has no emitter for yields
    ``(kind, signature, None, reason)`` instead of raising, so one
    unsupported topology never hides the rest of the registry from an
    auditor.
    """
    import itertools

    from .rail_topologies import get_rail_spec, rail_topology_names

    for kind in rail_topology_names():
        graph = RailGraph(get_rail_spec(kind))
        gate_names = graph._gate_names
        for dialect in (DIALECT_NUMPY, DIALECT_FLOAT):
            for combo in itertools.product((GATE_OPEN, GATE_CLOSED),
                                           repeat=len(gate_names)):
                signature = tuple(zip(gate_names, combo))
                try:
                    source = generate_kernel_source(graph, signature,
                                                    dialect)
                except KernelUnsupported as exc:
                    yield kind, signature, None, str(exc)
                    continue
                yield kind, signature, source, None


# ---------------------------------------------------------------------------
# Compilation and the kernel tables
# ---------------------------------------------------------------------------


def _plan_digest(graph: RailGraph) -> str:
    """Content hash of the graph's plan (cached on the graph instance)."""
    digest = graph._kernel_plan_digest
    if digest is None:
        payload = json.dumps(graph.spec.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        graph._kernel_plan_digest = digest
    return digest


def _exec_kernel(source: str, key: tuple) -> Callable:
    """Compile and execute kernel source, returning its kernel function."""
    float_dialect = key[3] == DIALECT_FLOAT
    name = "_float_kernel" if float_dialect else "_kernel"
    namespace = ({"math": math} if float_dialect
                 else {"np": np, "_OutOfEnvelope": _OutOfEnvelope,
                       "_fill": fill, "_select": select})
    code = compile(source, f"<railgraph-kernel {key[0][:12]}>", "exec")
    # The one sanctioned exec in the tree (lint rule DET004): the source
    # is generated above from the frozen plan, never from user input.
    exec(code, namespace)
    fn = namespace.get(name)
    if not callable(fn):
        raise KernelUnsupported(f"kernel source defines no {name}()")
    return fn


def _build_kernel(graph: RailGraph, signature: tuple,
                  key: tuple) -> CompiledKernel:
    # Float kernels count in their own scalar_* metrics.
    dialect = key[3]
    prefix = "scalar_" if dialect == DIALECT_FLOAT else ""
    try:
        source = generate_kernel_source(graph, signature, dialect)
    except KernelUnsupported as exc:
        _bump(prefix + "unsupported")
        return CompiledKernel(key=key, source="", fn=None, failed=True,
                              failure=str(exc))
    try:
        fn = _exec_kernel(source, key)
    except Exception as exc:
        _bump(prefix + "unsupported")
        return CompiledKernel(key=key, source=source, fn=None, failed=True,
                              failure=f"kernel source failed to compile: "
                                      f"{exc}")
    _bump(prefix + "compiles")
    return CompiledKernel(key=key, source=source, fn=fn)


def _kernel_entry(graph: RailGraph, signature: tuple,
                  dialect: str = DIALECT_NUMPY) -> CompiledKernel:
    """The shared table entry for one (plan, signature, dialect).

    A kernel compiles outside the lock, so a slow compile never blocks
    another lookup; two threads racing on one key may both compile, and
    the first entry stored is the one both get.
    """
    key = (_plan_digest(graph), signature, KERNEL_CODE_VERSION, dialect)
    with _KERNELS_LOCK:
        entry = _KERNELS.get(key)
    if entry is None:
        built = _build_kernel(graph, signature, key)
        with _KERNELS_LOCK:
            entry = _KERNELS.setdefault(key, built)
    return entry


def compiled_kernel_for(graph: RailGraph,
                        open_gates=frozenset()) -> CompiledKernel:
    """The cache entry serving a graph under a gate state (compiling it
    on first use).  Diagnostic API: tests and tooling use it to inspect
    source, verification state, and failure reasons.
    """
    return _kernel_entry(graph, resolve_gates(graph, open_gates))


# ---------------------------------------------------------------------------
# The reference walk: verification, error re-solve, and fallback
# ---------------------------------------------------------------------------


def _solve_point(graph: RailGraph, v, loads, signature, factors,
                 index: int) -> GraphSolution:
    """The reference walk (:meth:`RailGraph.solve_reference`) at one
    point of kernel inputs.  Not scalar ``solve``: that is served by
    float kernels from the same emitters, so a shared emitter bug would
    check itself."""
    return graph.solve_reference(
        float(v[index]),
        {channel: float(amps[index]) for channel, amps in loads.items()},
        open_gates=frozenset(gate for gate, state in signature
                             if state == GATE_OPEN),
        degradation=factors,
    )


def _walk_order(graph: RailGraph, signature: tuple) -> List[str]:
    """The components a kernel reports, in scalar-walk record order.

    That is every component but those behind a closed gate, which
    neither the kernel nor the scalar walk descends into.
    """
    closed = {gate for gate, state in signature if state == GATE_CLOSED}
    order: List[str] = []

    def visit(name: str) -> None:
        if graph._plan[name][0] not in closed:
            for child in graph._child_names[name]:
                visit(child)
        order.append(name)

    for child in graph._child_names[graph.spec.source.name]:
        visit(child)
    return order


def _scalar_loop(graph: RailGraph, v, loads, signature, factors,
                 shape) -> GraphSolutionBatch:
    """Solve every batch point with the reference walk.

    Raises the first point's :class:`~repro.errors.ElectricalError`,
    exactly as the loop would.
    """
    size = shape[0]
    i_source = np.zeros(size)
    currents = {name: np.zeros(size)
                for name in _walk_order(graph, signature)}
    for index in range(size):
        solution = _solve_point(graph, v, loads, signature, factors, index)
        i_source[index] = solution.i_source
        for name, amps in solution.component_i_in.items():
            currents[name][index] = amps
    return GraphSolutionBatch(
        v_source=v, i_source=i_source,
        component_i_in=FrozenMapping._adopt(currents),
    )


def _bitwise_equal(i_source, currents: Dict[str, np.ndarray],
                   reference: GraphSolutionBatch) -> bool:
    """Kernel output vs the scalar loop, every current at every point."""
    expected = reference.component_i_in
    if list(currents) != list(expected):
        return False
    return all(
        np.shape(got) == want.shape
        and np.asarray(got).tobytes() == want.tobytes()
        for got, want in zip((i_source, *currents.values()),
                             (reference.i_source, *expected.values()))
    )


def _retire(entry: CompiledKernel, reason: str,
            counter: str = "mismatches") -> None:
    """Take a kernel that disagreed with the walk out of service for
    good."""
    entry.failed = True
    entry.failure = reason
    _bump(counter)


def _fall_back(graph: RailGraph, inputs: tuple) -> GraphSolutionBatch:
    """Answer a batch with the scalar loop."""
    _bump("fallbacks")
    return _scalar_loop(graph, *inputs)


#: Workspaces a graph keeps, one per batch shape (the oldest goes first).
_WORKSPACE_SHAPES = 4


def _workspace(graph: RailGraph, shape: tuple) -> Workspace:
    """The graph's workspace for a batch shape (oldest shape evicted)."""
    shapes = graph._kernels.workspaces
    work = shapes.get(shape)
    if work is None:
        if len(shapes) >= _WORKSPACE_SHAPES:
            del shapes[next(iter(shapes))]
        work = shapes[shape] = Workspace(shape)
    return work


def _serve(graph: RailGraph, entry: CompiledKernel, v, loads, signature,
           factors, shape) -> GraphSolutionBatch:
    """Run one batch through a live kernel, verifying its first use."""
    inputs = (v, loads, signature, factors, shape)
    first_bad: Optional[int] = None
    work = _workspace(graph, shape)
    if not work.lock.acquire(blocking=False):
        work = Workspace(shape)  # in use (another thread): a private one
        work.lock.acquire()
    try:
        i_source, currents = entry.fn(v, loads, factors, shape, work)
    except _OutOfEnvelope as flagged:
        # Read the mask before the buffers it may live in are released.
        first_bad = int(np.argmax(flagged.bad))
    except Exception as exc:
        _retire(entry, f"compiled kernel raised an unexpected error: "
                       f"{exc!r}")
        return _fall_back(graph, inputs)
    finally:
        work.lock.release()
    if first_bad is not None:
        # Raises the scalar loop's first error: the lowest flagged point
        # is the first point the loop would fail at.
        _solve_point(graph, v, loads, signature, factors, first_bad)
        _retire(entry, "kernel flagged a point the scalar solve accepts")
        return _fall_back(graph, inputs)
    if not entry.verified:
        try:
            reference = _scalar_loop(graph, *inputs)
        except ElectricalError:
            _retire(entry, "kernel missed a point the scalar solve rejects")
            raise
        _bump("verifications")
        if not _bitwise_equal(i_source, currents, reference):
            _retire(entry, "kernel result diverged bitwise from the scalar "
                           "solve")
            _bump("fallbacks")
            return reference
        # An empty batch compares equal without evidence: keep checking.
        entry.verified = shape[0] > 0
    _bump("kernel_solves")
    return GraphSolutionBatch(
        v_source=v, i_source=i_source,
        component_i_in=FrozenMapping._adopt(currents),
    )


def solve_batch_compiled(graph: RailGraph, v, loads, signature, factors,
                         shape) -> GraphSolutionBatch:
    """Serve a batch from the kernel for its gate signature.

    Arguments are kernel inputs, built by ``RailGraph.solve_batch``: the
    voltage and a load array per tapped channel on the batch ``shape``,
    the :func:`resolve_gates` signature, and the float degradation
    factors other than ``1.0``.  A kernel's first batch is verified
    against the scalar loop; when no kernel can serve (disabled
    converter, unsupported or retired kernel) the scalar loop answers,
    counted in :func:`kernel_metrics`.  Out-of-envelope points raise the
    scalar loop's first :class:`~repro.errors.ElectricalError`.
    """
    inputs = (v, loads, signature, factors, shape)
    # enable()/disable() mutate runtime state the kernels bake in as
    # constants, so any disabled stage routes to the scalar loop.
    for converter in graph._converter_list:
        if not converter.enabled:
            return _fall_back(graph, inputs)
    batches = graph._kernels.batches
    entry = batches.get(signature)
    if entry is None:
        entry = batches[signature] = _kernel_entry(graph, signature)
    if entry.failed:
        return _fall_back(graph, inputs)
    return _serve(graph, entry, *inputs)


# ---------------------------------------------------------------------------
# The float point path behind scalar RailGraph.solve
# ---------------------------------------------------------------------------

def _float_entry(graph: RailGraph, open_gates) -> CompiledKernel:
    """The shared float kernel for a gate state, kept in the graph's
    table by the ``open_gates`` value itself: a gate state written
    directly (as checkpoint restore does) never meets a stale kernel."""
    signature = resolve_gates(graph, open_gates)
    entry = _kernel_entry(graph, signature, DIALECT_FLOAT)
    floats = graph._kernels.floats
    try:
        if len(floats) < 64:
            floats[open_gates] = entry
    except TypeError:
        pass  # unhashable gates: looked up again on every call
    return entry


def _same_bits(values: tuple, reference: tuple) -> bool:
    try:
        return [*map(type, values)] == [*map(type, reference)] and \
            np.array(values, dtype=np.float64).tobytes() == \
            np.array(reference, dtype=np.float64).tobytes()
    except (TypeError, ValueError, OverflowError):
        return False


def solve_point_slow(graph: RailGraph, entry: Optional[CompiledKernel], v,
                     i_mcu, i_sensor, i_radio_digital, i_radio_rf,
                     open_gates, degradation) -> Tuple[tuple, tuple]:
    """Every scalar solve a promoted float kernel did not answer.

    A kernel's first call is compared bitwise with the reference walk
    (``i_source`` plus every visited component current) before it is
    promoted.  The walk answers unsupported or retired kernels, disabled
    converters and a ``None`` from the kernel, raising its exact error;
    a kernel whose ``None`` the walk does not confirm is retired.
    """
    if entry is None:
        entry = _float_entry(graph, open_gates)
    ran, values = False, None
    if not entry.failed and all(conv.enabled
                                for conv in graph._converter_list):
        ran = True
        try:
            values = entry.fn(v, i_mcu, i_sensor, i_radio_digital,
                              i_radio_rf, degradation or None)
        except Exception:
            pass
        if values is not None and entry.verified:
            return entry.names, values
    if values is None:
        _bump("scalar_fallbacks")
    loads = dict(zip(CHANNELS, (i_mcu, i_sensor, i_radio_digital,
                                i_radio_rf)))
    try:
        solution = graph.solve_reference(v, loads, open_gates, degradation)
    except Exception:
        if values is not None:
            _retire(entry, "kernel missed a point the walk rejects",
                    "scalar_mismatches")
        raise
    currents = solution.component_i_in
    names, reference = tuple(currents), (solution.i_source,
                                         *currents.values())
    if ran and values is None:
        _retire(entry, "kernel flagged a point the walk accepts",
                "scalar_mismatches")
    elif values is not None:
        _bump("scalar_verifications")
        if _same_bits(values, reference):
            entry.names, entry.verified = names, True
        else:
            _retire(entry, "kernel result diverged bitwise from the walk",
                    "scalar_mismatches")
            _bump("scalar_fallbacks")
    return names, reference
