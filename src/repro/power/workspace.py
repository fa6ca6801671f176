"""Workspace lowering for the compiled batch kernels.

:mod:`repro.power.compile` emits each numpy batch kernel as straight-line
source in which every operation allocates a fresh ``(n,)`` array.  At
fleet scale those temporaries dominate: freed array pages go back to the
OS and the next call faults them in again.  :func:`lower_to_workspace`
rewrites the emitted body so every temporary the kernel does not return
is written with ``out=`` into a reused buffer of a :class:`Workspace`;
values the kernel returns stay freshly allocated.  Only where each
result lives changes, never an operation, its operands or their order,
so the lowered kernel's results are bitwise those of the emitted one
(and first-use verification still compares them with the walk).
"""

from __future__ import annotations

import ast
import dataclasses
import heapq
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Workspace", "fill", "lower_to_workspace", "select"]


#: The ufunc behind each operator and ``_np`` call the emitters write,
#: and the kind of buffer its result needs ("f" float64, "b" bool; the
#: emitters' ``np.where`` selects only between floats).
_OPERATOR_UFUNCS = {
    ast.Add: ("add", "f"), ast.Sub: ("subtract", "f"),
    ast.Mult: ("multiply", "f"), ast.Div: ("true_divide", "f"),
    ast.BitOr: ("bitwise_or", "b"), ast.BitAnd: ("bitwise_and", "b"),
    ast.Lt: ("less", "b"), ast.LtE: ("less_equal", "b"),
    ast.Gt: ("greater", "b"), ast.GtE: ("greater_equal", "b"),
    ast.Eq: ("equal", "b"), ast.NotEq: ("not_equal", "b"),
    ast.Invert: ("invert", "b"),
}
_CALL_UFUNCS = {"sqrt": "f", "minimum": "f", "maximum": "f", "hypot": "f",
                "isfinite": "b", "where": "f"}


def fill(out: np.ndarray, value: float) -> np.ndarray:
    """``np.full(out.shape, value)`` written into ``out``."""
    out.fill(value)
    return out


def select(out: np.ndarray, cond, a, b) -> np.ndarray:
    """``np.where(cond, a, b)`` written into ``out`` (which may be ``b``)."""
    if out is not b:
        np.copyto(out, b)
    np.copyto(out, a, where=cond)
    return out


class Workspace:
    """Reused kernel temporaries for one (graph, batch shape).

    Kernels ask for as many float64 and bool buffers as their lowered
    body uses (:meth:`take`); the lists only grow to the largest gate
    variant's need, so the memory is bounded by the graph's kernels.
    ``lock`` is held while a kernel runs on the buffers.
    """

    __slots__ = ("shape", "floats", "bools", "lock")

    def __init__(self, shape: tuple) -> None:
        self.shape = shape
        self.floats: List[np.ndarray] = []
        self.bools: List[np.ndarray] = []
        self.lock = threading.Lock()

    def take(self, n_float: int, n_bool: int):
        """The float and bool buffer lists, grown to the asked sizes."""
        while len(self.floats) < n_float:
            self.floats.append(np.empty(self.shape))
        while len(self.bools) < n_bool:
            self.bools.append(np.empty(self.shape, dtype=bool))
        return self.floats, self.bools


@dataclasses.dataclass(eq=False)
class _Value:
    """One array a kernel statement produces (or an input it reads)."""

    #: Index of the last statement reading the value.
    last_read: int = -1
    #: Returned by the kernel, so it must be a freshly allocated array.
    escapes: bool = False
    #: ``("f"|"b", k)`` while the value lives in a workspace buffer.
    slot: Optional[Tuple[str, int]] = None


def _operator(node: ast.AST):
    """``(ufunc, result kind, operand nodes)`` for a lowerable node."""
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATOR_UFUNCS:
        return (*_OPERATOR_UFUNCS[type(node.op)], [node.left, node.right])
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and type(node.ops[0]) in _OPERATOR_UFUNCS:
        return (*_OPERATOR_UFUNCS[type(node.ops[0])],
                [node.left, node.comparators[0]])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return (*_OPERATOR_UFUNCS[ast.Invert], [node.operand])
    if isinstance(node, ast.Call) and not node.keywords \
            and isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id == "_np":
        name = node.func.attr
        if name in _CALL_UFUNCS:
            return name, _CALL_UFUNCS[name], list(node.args)
    return None


def _leaf_text(node: ast.AST) -> Optional[str]:
    """Source of a name or (signed) constant operand, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant):
        return f"-{node.operand.value!r}"
    return None


def _reads(stmt: ast.stmt) -> List[str]:
    """Names a statement reads (an ``if`` header reads only its test)."""
    if isinstance(stmt, ast.If):
        parts: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, ast.AugAssign):
        parts = [stmt.target, stmt.value]
    else:
        parts = [getattr(stmt, "value", None) or getattr(stmt, "exc", None)]
    return [node.id for part in parts if part is not None
            for node in ast.walk(part) if isinstance(node, ast.Name)]


def lower_to_workspace(body: List[str]) -> List[str]:
    """Write a numpy kernel's non-returned temporaries into reused buffers.

    ``body`` is the emitted statement lines at the kernel body's indent.
    Each value an assignment produces is tracked (aliases share one);
    values the final ``return`` reads must stay fresh arrays, every
    other one is computed with ``out=`` into a float or bool buffer
    ``_wf[k]``/``_wb[k]``.  Buffers are assigned by liveness: a value's
    buffer is free again after the last statement reading it, and a
    result may overwrite an operand that dies in the same statement
    (elementwise, so in place is exact).  ``np.where`` becomes
    :func:`select` and ``np.zeros`` :func:`fill` (bound as ``_select``
    and ``_fill`` in the kernel namespace).  Every operation keeps its
    operands, order and ufunc — only where its result lives changes — so
    results are bitwise unchanged.  Statements outside this grammar and
    those inside an ``if`` stay verbatim (allocating, always safe).
    Prepends ``_wf, _wb = work.take(F, B)``.
    """
    indent = len(body[0]) - len(body[0].lstrip()) if body else 0
    tree = ast.parse("\n".join(line[indent:] for line in body))
    flat: List[Tuple[ast.stmt, bool]] = []

    def collect(stmts: List[ast.stmt], conditional: bool) -> None:
        for stmt in stmts:
            flat.append((stmt, conditional))
            if isinstance(stmt, ast.If):
                collect(stmt.body, True)
                collect(stmt.orelse, True)

    collect(tree.body, False)

    # -- pass 1: bind values to names, find last reads and escapes.
    env: Dict[str, frozenset] = {}  # name -> the value(s) it may hold
    envs: List[Dict[str, frozenset]] = []
    made: List[Optional[_Value]] = []
    for index, (stmt, conditional) in enumerate(flat):
        envs.append(dict(env))
        for name in _reads(stmt):
            # A name read before any binding is an input.
            for value in env.setdefault(name, frozenset([_Value()])):
                value.last_read = index
                value.escapes |= isinstance(stmt, ast.Return)
        new = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            rhs = stmt.value
            if isinstance(rhs, ast.Name):
                values = env[rhs.id]
            elif isinstance(rhs, (ast.Subscript, ast.Attribute)) or (
                    isinstance(rhs, ast.Call)
                    and isinstance(rhs.func, ast.Attribute)
                    and rhs.func.attr == "get"):
                values = frozenset([_Value()])  # loads[...], factors.get
            else:
                new = _Value()
                values = frozenset([new])
            target = stmt.targets[0].id
            if conditional:  # either binding may hold after the ``if``
                values = env.get(target, frozenset()) | values
            env[target] = values
        made.append(new)

    # -- pass 2: assign buffers and rewrite statements.
    free: Dict[str, List[int]] = {"f": [], "b": []}
    count = {"f": 0, "b": 0}
    live: List[_Value] = []

    def take(kind: str) -> Tuple[str, int]:
        if free[kind]:
            return kind, heapq.heappop(free[kind])
        count[kind] += 1
        return kind, count[kind] - 1

    def buffer(slot: Tuple[str, int]) -> str:
        return f"_w{slot[0]}[{slot[1]}]"

    def call(fn: str, texts: List[str], out: Optional[str] = None) -> str:
        if fn == "where":
            return (f"_select({out}, {', '.join(texts)})" if out
                    else f"_np.where({', '.join(texts)})")
        args = texts + ([f"out={out}"] if out else [])
        return f"_np.{fn}({', '.join(args)})"

    def lower(node: ast.AST, held: List[Tuple[str, int]]):
        """Lowered text of a sub-expression and the buffer it fills."""
        leaf = _leaf_text(node)
        if leaf is not None:
            return leaf, None
        op = _operator(node)
        if op is None:
            return f"({ast.unparse(node)})", None
        fn, kind, operands = op
        parts = [lower(operand, held) for operand in operands]
        # Elementwise, so the result may overwrite an operand's
        # temporary; _select's copy-then-mask only the else-branch's.
        reusable = parts[2:] if fn == "where" else parts
        slot = next((s for _, s in reusable if s and s[0] == kind), None)
        if slot is None:
            slot = take(kind)
            held.append(slot)
        return call(fn, [text for text, _ in parts], buffer(slot)), slot

    out_lines: Dict[int, str] = {}
    for index, (stmt, conditional) in enumerate(flat):
        held: List[Tuple[str, int]] = []
        new = made[index]
        rhs = getattr(stmt, "value", None)
        op = _operator(rhs) if rhs is not None else None
        if new is not None and not conditional and not new.escapes \
                and isinstance(rhs, ast.Call) \
                and isinstance(rhs.func, ast.Attribute) \
                and rhs.func.attr == "zeros":
            new.slot = take("f")
            live.append(new)
            out_lines[stmt.lineno] = (f"{stmt.targets[0].id} = "  # type: ignore
                                      f"_fill({buffer(new.slot)}, 0.0)")
        elif new is not None and not conditional and op is not None:
            fn, kind, operands = op
            parts = [lower(operand, held) for operand in operands]
            texts = [text for text, _ in parts]
            if new.escapes:
                text = call(fn, texts)
            else:
                # The result may overwrite a temporary or a value that
                # dies here (for np.where only the else-branch).
                pairs = list(zip(operands, parts))
                for operand, (_, slot) in pairs[2:] if fn == "where" \
                        else pairs:
                    values = envs[index].get(getattr(operand, "id", ""), ())
                    dying = next(iter(values)) if len(values) == 1 else None
                    if slot is not None and slot[0] == kind:
                        new.slot = slot
                        held.remove(slot)
                        break
                    if dying is not None and dying.last_read == index \
                            and dying.slot is not None \
                            and dying.slot[0] == kind:
                        new.slot, dying.slot = dying.slot, None
                        live.remove(dying)
                        break
                if new.slot is None:
                    new.slot = take(kind)
                live.append(new)
                text = call(fn, texts, buffer(new.slot))
            out_lines[stmt.lineno] = f"{stmt.targets[0].id} = {text}"  # type: ignore
        elif isinstance(stmt, ast.AugAssign) and not conditional \
                and _leaf_text(stmt.value) is None:
            text, _ = lower(stmt.value, held)
            out_lines[stmt.lineno] = ast.unparse(ast.AugAssign(
                target=stmt.target, op=stmt.op, value=ast.Name(id=text)))
        for slot in held:
            heapq.heappush(free[slot[0]], slot[1])
        for value in [value for value in live if value.last_read <= index]:
            live.remove(value)
            heapq.heappush(free[value.slot[0]], value.slot[1])
            value.slot = None

    lowered = []
    for lineno, line in enumerate(body, start=1):
        text = out_lines.get(lineno)
        lead = line[:len(line) - len(line.lstrip())]
        lowered.append(line if text is None else lead + text)
    if count["f"] or count["b"]:
        lowered.insert(0, " " * indent
                       + f"_wf, _wb = work.take({count['f']}, {count['b']})")
    return lowered
