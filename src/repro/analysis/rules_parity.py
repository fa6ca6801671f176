"""Scalar<->mirror parity rules.

The cohort engine keeps elementwise float64 mirrors of the scalar
battery/terminal-sag code in sync by hand.  Runtime goldens catch drift
*eventually*; this rule catches it at lint time.  (Rail-graph batch
solving has no hand-written mirror: its compiled kernels are verified
bitwise against the scalar ``RailGraph.solve`` at runtime.)

``VEC002 mirror-constant-drift``
    Modules may declare a ``PARITY_MIRRORS`` mapping from a mirror
    function's qualified name to the qualified names
    (``"module:Class.method"``) of the scalar functions it replays.
    Every float constant the mirror's arithmetic uses must appear in at
    least one of its scalar references — a constant found only in the
    mirror is exactly the one-sided edit the cohort probe harness
    exists to catch, reported here before a probe ever runs.  (Markers
    are live: a mirror or reference qualname that no longer resolves is
    itself a finding.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .driver import (
    FunctionDefNode,
    ModuleContext,
    ProjectIndex,
    Rule,
)
from .findings import SEVERITY_ERROR, Finding


def _float_constants(func: FunctionDefNode) -> Set[str]:
    """repr() of every float literal in a function's arithmetic.

    Integers are excluded (shape/index arithmetic), as is anything
    inside a subscript slice (table indexing, not physics).
    """
    found: Set[str] = set()

    def visit(node: ast.AST, in_slice: bool) -> None:
        if isinstance(node, ast.Constant):
            if (isinstance(node.value, float)
                    and not isinstance(node.value, bool)
                    and not in_slice):
                found.add(repr(node.value))
            return
        if isinstance(node, ast.Subscript):
            visit(node.value, in_slice)
            visit(node.slice, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_slice)

    visit(func, False)
    return found


def _parity_markers(tree: ast.Module) -> Optional[Dict[str, Tuple[str, ...]]]:
    """The module-level ``PARITY_MIRRORS`` dict, if declared."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) \
                    and target.id == "PARITY_MIRRORS" and value is not None:
                try:
                    raw = ast.literal_eval(value)
                except ValueError:
                    return None
                markers: Dict[str, Tuple[str, ...]] = {}
                for key, refs in raw.items():
                    if isinstance(refs, str):
                        refs = (refs,)
                    markers[str(key)] = tuple(str(r) for r in refs)
                return markers
    return None


class MirrorConstantParityRule(Rule):
    """Float constants of a declared mirror missing from its references."""

    rule_id = "VEC002"
    rule_name = "mirror-constant-drift"
    severity = SEVERITY_ERROR
    description = ("PARITY_MIRRORS mirror uses a float constant absent "
                   "from its scalar reference function(s)")

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        markers = _parity_markers(ctx.tree)
        if not markers:
            return
        for mirror_name in sorted(markers):
            refs = markers[mirror_name]
            mirror = index.lookup_qualified(ctx.module, mirror_name)
            if mirror is None:
                yield self.finding(
                    ctx, ctx.tree,
                    f"PARITY_MIRRORS names `{mirror_name}`, which does "
                    f"not exist in this module",
                )
                continue
            ref_constants: Set[str] = set()
            unresolved = False
            for ref in refs:
                module, _sep, qualname = ref.partition(":")
                if module not in index.modules:
                    # reference module outside the linted file set:
                    # parity cannot be checked for this mirror
                    unresolved = True
                    continue
                ref_func = index.lookup_qualified(module, qualname)
                if ref_func is None:
                    yield self.finding(
                        ctx, mirror,
                        f"PARITY_MIRRORS reference `{ref}` for "
                        f"`{mirror_name}` does not resolve",
                    )
                    unresolved = True
                    continue
                ref_constants |= _float_constants(ref_func)
            if unresolved:
                continue
            extras = _float_constants(mirror) - ref_constants
            if extras:
                listed = ", ".join(sorted(extras))
                referenced = ", ".join(refs)
                yield self.finding(
                    ctx, mirror,
                    f"mirror `{mirror_name}` uses float constant(s) "
                    f"{listed} absent from its scalar reference(s) "
                    f"{referenced}",
                )
