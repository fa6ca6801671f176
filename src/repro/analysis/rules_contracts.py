"""API-contract rules: invariants downstream code silently relies on.

``API001 unfrozen-fault-event``
    Fault events are hashable schedule keys and cross process
    boundaries in chaos campaigns; every ``FaultEvent`` dataclass (and
    anything named ``*Event`` in ``repro.faults``) must stay
    ``frozen=True``.

``API002 missing-slots``
    The hot-path classes in :data:`SLOTS_REGISTRY` were measured and
    slotted on purpose (a year-scale run allocates millions of them);
    dropping ``__slots__`` is a silent memory/speed regression.

``API003 mutable-default-argument``
    The classic shared-state bug, banned everywhere.

``API004 unfrozen-rail-spec``
    Rail-graph topology specs are shared data: the registry hands the
    same :class:`~repro.power.graph.RailGraphSpec` values to every
    caller, campaigns ship them across process boundaries, and
    serialization round-trips assume value semantics.  Every
    ``*Spec`` dataclass in the rail-graph modules must stay
    ``frozen=True`` (and must stay a dataclass at all).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional

from .driver import ModuleContext, ProjectIndex, Rule
from .findings import SEVERITY_ERROR, Finding

#: module -> class names that must keep an explicit ``__slots__``.
SLOTS_REGISTRY: Dict[str, FrozenSet[str]] = {
    "repro.sim.events": frozenset({"Event"}),
    "repro.sim.trace": frozenset({"_PeriodicBlock"}),
    "repro.sim.fastforward": frozenset({"CycleCandidate", "_Sighting"}),
}

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
_MUTABLE_ATTR_CALLS = frozenset({
    "defaultdict", "OrderedDict", "deque", "Counter",
})


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` decorator node, bare or called, if present."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return dec
    return None


def _is_frozen(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass defaults to frozen=False
    for kw in decorator.keywords:
        if kw.arg == "frozen":
            return (isinstance(kw.value, ast.Constant)
                    and kw.value.value is True)
    return False


class UnfrozenFaultEventRule(Rule):
    """Fault-event dataclasses must stay ``frozen=True``."""

    rule_id = "API001"
    rule_name = "unfrozen-fault-event"
    severity = SEVERITY_ERROR
    description = ("dataclass in repro.faults deriving FaultEvent "
                   "(or named *Event) without frozen=True")
    module_prefixes = ("repro.faults",)

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_fault_event(node):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue  # plain classes manage their own immutability
            if not _is_frozen(decorator):
                yield self.finding(
                    ctx, node,
                    f"fault event `{node.name}` must be declared "
                    f"@dataclass(frozen=True)",
                )

    @staticmethod
    def _is_fault_event(node: ast.ClassDef) -> bool:
        if node.name == "FaultEvent" or node.name.endswith("Event"):
            return True
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None)
            if name == "FaultEvent":
                return True
        return False


class MissingSlotsRule(Rule):
    """Registered hot-path classes must keep ``__slots__``."""

    rule_id = "API002"
    rule_name = "missing-slots"
    severity = SEVERITY_ERROR
    description = ("hot-path class in the slots registry lost its "
                   "__slots__ declaration")

    def __init__(self, registry: Optional[Dict[str, FrozenSet[str]]] = None):
        self.registry = SLOTS_REGISTRY if registry is None else registry

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module in self.registry

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        required = self.registry.get(ctx.module, frozenset())
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.ClassDef) and node.name in required
                    and not self._has_slots(node)):
                yield self.finding(
                    ctx, node,
                    f"`{node.name}` is allocation-hot and registered "
                    f"for __slots__; restore the declaration",
                )

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False


class UnfrozenRailSpecRule(Rule):
    """Rail-graph ``*Spec`` dataclasses must stay ``frozen=True``."""

    rule_id = "API004"
    rule_name = "unfrozen-rail-spec"
    severity = SEVERITY_ERROR
    description = ("rail-graph *Spec class that is not a "
                   "@dataclass(frozen=True)")
    module_prefixes = ("repro.power.graph", "repro.power.rail_topologies")

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Spec"):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                yield self.finding(
                    ctx, node,
                    f"rail spec `{node.name}` must be a dataclass "
                    f"(registry serialization relies on fields())",
                )
            elif not _is_frozen(decorator):
                yield self.finding(
                    ctx, node,
                    f"rail spec `{node.name}` must be declared "
                    f"@dataclass(frozen=True); specs are shared by the "
                    f"registry and cross process boundaries",
                )


class MutableDefaultRule(Rule):
    """No mutable default arguments, anywhere."""

    rule_id = "API003"
    rule_name = "mutable-default-argument"
    severity = SEVERITY_ERROR
    description = "mutable default argument shared across calls"

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults
                            if d is not None)
            label = getattr(node, "name", "<lambda>")
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in `{label}()` is shared "
                        f"across every call; default to None instead",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in _MUTABLE_CALLS | _MUTABLE_ATTR_CALLS
            if isinstance(func, ast.Attribute):
                return func.attr in _MUTABLE_ATTR_CALLS
        return False
