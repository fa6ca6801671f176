"""Determinism rules: guard the bit-exact replay contract.

The runner derives every stream from sha256 seeds, the chaos campaigns
assert serial == parallel byte-for-byte, and the fast-forward
accelerator replays whole cycles analytically.  One unseeded draw or
wall-clock read silently breaks all three.  Three rules:

``DET001 unseeded-random``
    Module-level ``random.*`` draws (``random.random()``,
    ``random.choice()``…) anywhere in the tree.  Every stream must flow
    through an explicitly seeded ``random.Random(seed)`` instance.

``DET002 wall-clock-in-sim``
    ``time.time()``/``datetime.now()``/``os.urandom``-class calls under
    ``repro.sim`` and ``repro.core`` — simulated time comes from the
    engine clock, never the host.  (``repro.runner`` may keep
    ``perf_counter`` for wall-clock *metrics*; that package is outside
    this rule's scope on purpose.)

``DET003 unordered-iteration``
    Iterating a ``set`` (literal, ``set()``/``frozenset()`` call,
    set-algebra result, or a local assigned from one) without
    ``sorted()`` in the trace/engine/fast-forward hot paths, where
    iteration order feeds event scheduling.

``DET004 dynamic-code``
    ``exec``/``eval`` anywhere except ``repro.power.compile`` — the one
    sanctioned codegen escape hatch (plan-compiled solve kernels, whose
    generated source is bitwise-verified against the scalar solve on
    first use).  Dynamic code anywhere else would let untracked source
    into the replay contract.  ``pickle.load``/``pickle.loads`` run code
    too and are confined the same way, to the two durable readers
    ``repro.runner.store`` and ``repro.sim.checkpoint``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from .driver import ModuleContext, ProjectIndex, Rule
from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding

#: ``random`` module functions that construct independent generators
#: (and are therefore fine at module level).
_ALLOWED_RANDOM_ATTRS = frozenset({"Random"})

#: Wall-clock / entropy calls banned in simulation code, in both
#: ``import x`` and ``from x import y`` spellings.
_BANNED_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.now",
    "datetime.datetime.utcnow", "datetime.utcnow",
    "datetime.date.today", "date.today",
    "os.urandom", "urandom",
    "uuid.uuid4", "uuid4",
})

_SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})

#: ``exec``/``eval`` spellings DET004 rejects: the bare builtins and the
#: explicit ``builtins.``-qualified forms.
_DYNAMIC_CODE_CALLS = frozenset({
    "exec", "eval", "builtins.exec", "builtins.eval",
})

#: The one module allowed to call ``exec``: the RailGraph plan compiler
#: (its generated kernels are bitwise-verified on first use).
_DYNAMIC_CODE_ALLOWED_MODULES = frozenset({"repro.power.compile"})

#: ``pickle`` readers DET004 rejects, and the modules allowed to call
#: them: the result store and the checkpoint reader, whose directories
#: are trusted-writer boundaries.
_UNPICKLE_FUNCTIONS = frozenset({"load", "loads"})
_UNPICKLE_ALLOWED_MODULES = frozenset({
    "repro.runner.store", "repro.sim.checkpoint",
})


def _imports_of(tree: ast.Module,
                module: str) -> Tuple[Set[str], Dict[str, str]]:
    """Local names bound to ``module`` (``import module [as x]``) and its
    from-imports (``from module import y [as x]``: local name -> ``y``)."""
    aliases: Set[str] = set()
    from_imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = alias.name
    return aliases, from_imports


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class UnseededRandomRule(Rule):
    """Module-level ``random.*`` draw instead of a seeded instance."""

    rule_id = "DET001"
    rule_name = "unseeded-random"
    severity = SEVERITY_ERROR
    description = ("module-level random.* draw; route every stream "
                   "through a seeded random.Random(seed)")

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        aliases, from_imports = _imports_of(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr not in _ALLOWED_RANDOM_ATTRS):
                yield self.finding(
                    ctx, node,
                    f"module-level random.{func.attr}() draws from the "
                    f"shared unseeded generator",
                )
            elif (isinstance(func, ast.Name)
                    and func.id in from_imports
                    and from_imports[func.id] not in _ALLOWED_RANDOM_ATTRS):
                yield self.finding(
                    ctx, node,
                    f"`{func.id}()` (from random import "
                    f"{from_imports[func.id]}) draws from the shared "
                    f"unseeded generator",
                )


class WallClockRule(Rule):
    """Host wall-clock or OS entropy read inside simulation code."""

    rule_id = "DET002"
    rule_name = "wall-clock-in-sim"
    severity = SEVERITY_ERROR
    description = ("time.time()/datetime.now()/os.urandom under "
                   "repro.sim or repro.core; use the engine clock")
    module_prefixes = ("repro.sim", "repro.core")

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in _BANNED_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{dotted}() reads the host, not the simulation; "
                    f"simulated time comes from the engine clock",
                )


class DynamicCodeRule(Rule):
    """``exec``/``eval`` or ``pickle.load``/``loads`` outside their one
    sanctioned home (the kernel compiler; the two durable readers)."""

    rule_id = "DET004"
    rule_name = "dynamic-code"
    severity = SEVERITY_ERROR
    description = ("exec/eval are forbidden everywhere except "
                   "repro.power.compile (the plan-compiled kernel "
                   "escape hatch); pickle.load/loads everywhere except "
                   "repro.runner.store and repro.sim.checkpoint")

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        check_exec = ctx.module not in _DYNAMIC_CODE_ALLOWED_MODULES
        check_pickle = ctx.module not in _UNPICKLE_ALLOWED_MODULES
        aliases, from_imports = _imports_of(ctx.tree, "pickle")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func)
            if check_exec and dotted in _DYNAMIC_CODE_CALLS:
                name = dotted.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx, node,
                    f"{name}() injects dynamic code; only the plan "
                    f"compiler (repro.power.compile) may generate and "
                    f"execute source",
                )
            if not check_pickle:
                continue
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr in _UNPICKLE_FUNCTIONS):
                name = f"pickle.{func.attr}"
            elif (isinstance(func, ast.Name)
                    and from_imports.get(func.id) in _UNPICKLE_FUNCTIONS):
                name = f"pickle.{from_imports[func.id]}"
            else:
                continue
            yield self.finding(
                ctx, node,
                f"{name}() runs code from its input; only "
                f"repro.runner.store and repro.sim.checkpoint may "
                f"unpickle, from trusted-writer directories",
            )


class UnorderedIterationRule(Rule):
    """Set iteration without ``sorted()`` in deterministic hot paths."""

    rule_id = "DET003"
    rule_name = "unordered-iteration"
    severity = SEVERITY_WARNING
    description = ("iteration over a set without sorted() in the "
                   "trace/engine/fast-forward hot paths")
    module_prefixes = (
        "repro.sim.trace",
        "repro.sim.engine",
        "repro.sim.events",
        "repro.sim.fastforward",
        "repro.core.fastforward",
    )

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        set_vars = self._set_locals(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it, set_vars):
                    yield self.finding(
                        ctx, it,
                        "iterating a set yields hash order; wrap in "
                        "sorted() to keep replay bit-exact",
                    )

    @staticmethod
    def _set_locals(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and UnorderedIterationRule._is_set_expr(node.value,
                                                           frozenset())):
                names.add(node.targets[0].id)
        return names

    @staticmethod
    def _is_set_expr(node: ast.AST, set_vars) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            # set algebra via operators: a & b, a | b, a ^ b on sets —
            # only claim it when a side is itself set-like.
            return (UnorderedIterationRule._is_set_expr(node.left, set_vars)
                    or UnorderedIterationRule._is_set_expr(node.right,
                                                          set_vars))
        return False
