"""The per-file AST driver behind ``python -m repro lint``.

The driver walks the requested paths, parses each ``.py`` file exactly
once, wraps it in a :class:`ModuleContext`, builds one
:class:`ProjectIndex` over the whole file set (so call-site rules can
resolve functions defined in *other* modules), and then hands every
(context, index) pair to each registered rule.

Rules are plain objects satisfying :class:`Rule`: a ``rule_id``, a
``rule_name``, a ``severity``, a one-line ``description``, and a
``check(ctx, index)`` generator of :class:`Finding`.  Registering a new
rule is appending an instance to ``default_rules()`` (see
``docs/LINTING.md`` for the recipe).
"""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .dimensions import dimension_of_name
from .findings import SEVERITY_ERROR, Finding


@dataclasses.dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed file."""

    path: pathlib.Path     # absolute
    relpath: str           # posix-style, relative to the lint root
    module: str            # dotted module name, e.g. "repro.sim.engine"
    source: str
    tree: ast.Module
    lines: List[str]

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class every lint rule derives from.

    Subclasses set the four class attributes and implement
    :meth:`check`.  ``module_prefixes``, when non-empty, restricts the
    rule to modules whose dotted name starts with one of the prefixes
    (the driver enforces it, so rules stay scope-free).
    """

    rule_id: str = "RULE000"
    rule_name: str = "unnamed-rule"
    severity: str = SEVERITY_ERROR
    description: str = ""
    module_prefixes: Tuple[str, ...] = ()

    def check(self, ctx: ModuleContext,
              index: "ProjectIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: ModuleContext) -> bool:
        if not self.module_prefixes:
            return True
        return any(ctx.module == p or ctx.module.startswith(p + ".")
                   for p in self.module_prefixes)

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            rule_name=self.rule_name,
            severity=self.severity,
            message=message,
            snippet=ctx.snippet(node),
        )


@dataclasses.dataclass
class FunctionInfo:
    """Parameter names of one function def, minus a leading self/cls."""

    params: Tuple[str, ...]

    def dimension_signature(self) -> Tuple[Optional[str], ...]:
        return tuple(dimension_of_name(p) for p in self.params)


class ProjectIndex:
    """Cross-module facts gathered in a first pass over every file.

    ``functions`` maps a *simple* function name to its
    :class:`FunctionInfo` when every definition of that name across the
    file set agrees on its parameter dimension signature; names whose
    definitions disagree are mapped to ``None`` so call-site rules stay
    silent rather than guess.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, Optional[FunctionInfo]] = {}

    def add_module(self, ctx: ModuleContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            info = FunctionInfo(params=tuple(params))
            existing = self.functions.get(node.name, _MISSING)
            if existing is _MISSING:
                self.functions[node.name] = info
            elif existing is None:
                pass
            elif (existing.dimension_signature()
                  != info.dimension_signature()):
                self.functions[node.name] = None

    def lookup(self, name: str) -> Optional[FunctionInfo]:
        return self.functions.get(name)


_MISSING = object()


def iter_python_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """All ``.py`` files under ``paths``, sorted for determinism."""
    files = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            files.add(path)
    return sorted(files)


def _module_name(relpath: str) -> str:
    parts = pathlib.PurePosixPath(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


def load_context(path: pathlib.Path,
                 root: pathlib.Path) -> Tuple[Optional[ModuleContext],
                                              Optional[Finding]]:
    """Parse one file; on a syntax error return a parse finding instead."""
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="PARSE000",
            rule_name="syntax-error",
            severity=SEVERITY_ERROR,
            message=f"cannot parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
    return ModuleContext(
        path=path,
        relpath=relpath,
        module=_module_name(relpath),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    ), None


def finalize_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deduplicate and order findings deterministically.

    Identical findings collapse to one (overlapping path arguments and
    merged parallel-driver shards both produce duplicates), and the
    survivors sort by ``(path, line, col, severity, rule)`` so report
    output is byte-stable regardless of rule or worker order.
    """
    return sorted(dict.fromkeys(findings), key=Finding.sort_key)


def analyze_paths(paths: Sequence[pathlib.Path],
                  rules: Iterable[Rule],
                  root: Optional[pathlib.Path] = None) -> List[Finding]:
    """Lint ``paths`` with ``rules`` and return sorted findings."""
    root = root or pathlib.Path(os.getcwd())
    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    for path in iter_python_files(list(paths)):
        ctx, parse_finding = load_context(path, root)
        if parse_finding is not None:
            findings.append(parse_finding)
        if ctx is not None:
            contexts.append(ctx)
    index = ProjectIndex()
    for ctx in contexts:
        index.add_module(ctx)
    for ctx in contexts:
        for rule in rules:
            if rule.applies_to(ctx):
                findings.extend(rule.check(ctx, index))
    return finalize_findings(findings)
