"""The suffix -> dimension vocabulary the unit rules reason with.

The whole codebase keeps quantities in strict SI and names them with a
unit suffix (``bus_voltage_v``, ``sleep_power_w``, ``start_s``).  That
convention is machine-checkable: the *last* underscore-separated token
of an identifier names its dimension.  This module owns the suffix
table and the small inference helpers shared by every unit rule —
given an ``ast`` expression, what dimension (if any) does it carry?

Inference is deliberately conservative: a dimension is only assigned
when the name says so, and arithmetic only propagates a dimension when
both operands agree.  Unknown stays unknown; rules fire only on a
*known* disagreement, never on missing information.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Tuple

#: Identifier suffix -> dimension.  The ten load-bearing suffixes from
#: ``repro.units`` plus the mechanical pair (``_m``, ``_kg``) the board
#: and harvester models use.
SUFFIX_DIMENSIONS = {
    "v": "voltage",
    "a": "current",
    "w": "power",
    "j": "energy",
    "s": "time",
    "hz": "frequency",
    "f": "capacitance",
    "ohm": "resistance",
    "db": "gain_db",
    "dbm": "level_dbm",
    "m": "length",
    "kg": "mass",
}

#: Full identifiers that *look* suffixed but are not quantities.
#: (``max_events`` -> ``_s``?  No: only the final token counts, but a
#: handful of real names still collide with the table.)
NON_UNIT_NAMES = frozenset({
    "args",      # argparse namespaces everywhere
    "kwargs",
    "cls",
    "insort_s",  # defensive: bisect-style helpers
})

#: SI literal spellings the bare-literal rule recognises, and the
#: ``repro.units`` helper that should replace them.
SI_EXPONENT_HELPERS = {
    "3": "milli",
    "6": "micro",
    "9": "nano",
    "12": "pico",
}

_SI_LITERAL_RE = re.compile(r"^\d+(?:\.\d+)?[eE]-(3|6|9|12)$")


def dimension_of_name(name: str) -> Optional[str]:
    """Dimension carried by an identifier, or ``None``.

    Only multi-token names qualify (``v`` alone is a loop variable, not
    a voltage), and the final token must be in the suffix table.
    """
    if name in NON_UNIT_NAMES:
        return None
    tokens = name.strip("_").lower().split("_")
    if len(tokens) < 2:
        return None
    return SUFFIX_DIMENSIONS.get(tokens[-1])


def si_literal_parts(ctx_source: str, node: ast.AST) -> Optional[Tuple[str, str]]:
    """If ``node`` is spelled as a bare SI literal, return (text, helper).

    Matches the *source text* (``20e-6``, ``1.5e-3``) rather than the
    float value, so ``0.001`` — an ordinary decimal — is never flagged;
    only the scientific-notation spellings the unit helpers exist to
    replace.
    """
    if not isinstance(node, ast.Constant) or not isinstance(node.value, float):
        return None
    text = ast.get_source_segment(ctx_source, node)
    if text is None:
        return None
    match = _SI_LITERAL_RE.match(text.strip())
    if match is None:
        return None
    return text.strip(), SI_EXPONENT_HELPERS[match.group(1)]


def combine(op: ast.operator, left: Optional[str],
            right: Optional[str]) -> Tuple[Optional[str], Optional[str]]:
    """Resulting dimension of ``left <op> right`` and an error, if any.

    Returns ``(dimension, problem)``.  ``problem`` is a human-readable
    clause when the combination is dimensionally wrong; ``dimension`` is
    the propagated result when it is known, else ``None``.

    Decibel arithmetic gets the domain treatment: a relative gain
    (``_db``) may shift an absolute level (``_dbm``), and the difference
    of two levels is a gain — but *adding* two absolute levels is the
    classic link-budget blunder and is flagged.
    """
    if not isinstance(op, (ast.Add, ast.Sub)):
        return None, None  # products/ratios change dimension; stay unknown
    if left is None or right is None:
        # A bare offset added to a quantity keeps the quantity's
        # dimension; the unknown side is assumed consistent.
        return left or right, None
    if left == right:
        if left == "level_dbm" and isinstance(op, ast.Add):
            return None, "adding two absolute dBm levels"
        if left == "level_dbm" and isinstance(op, ast.Sub):
            return "gain_db", None
        return left, None
    db_pair = {left, right} == {"gain_db", "level_dbm"}
    if db_pair:
        if isinstance(op, ast.Add):
            return "level_dbm", None
        if left == "level_dbm":  # level - gain -> level
            return "level_dbm", None
        return None, "subtracting an absolute dBm level from a relative gain"
    verb = "adding" if isinstance(op, ast.Add) else "subtracting"
    return None, f"{verb} {left} and {right}"


def dimension_of_expr(source: str, node: ast.AST) -> Optional[str]:
    """Infer the dimension of an expression, or ``None`` if unknown."""
    if isinstance(node, ast.Name):
        return dimension_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return dimension_of_name(node.attr)
    if isinstance(node, ast.UnaryOp):
        return dimension_of_expr(source, node.operand)
    if isinstance(node, ast.Subscript):
        # foo_v[3] indexes a collection *of* volts
        return dimension_of_expr(source, node.value)
    if isinstance(node, ast.BinOp):
        left = dimension_of_expr(source, node.left)
        right = dimension_of_expr(source, node.right)
        dim, _problem = combine(node.op, left, right)
        return dim
    return None
