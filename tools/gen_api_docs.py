#!/usr/bin/env python3
"""Generate docs/API.md: an index of the public API from live docstrings.

Walks every ``repro`` module, collects its ``__all__`` (falling back to
the public classes and functions the module defines), and writes one
section per module with one line per symbol — kind, signature, and the
first docstring line.  Run after API changes::

    python tools/gen_api_docs.py

The test suite asserts the committed file is current.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys

def module_names():
    """Every ``repro`` module and package, in walk order, bar ``__main__``."""
    import repro

    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return "constant"


def collect(module_name: str):
    """The module and its rows: ``__all__`` when it has one, otherwise the
    public classes and functions the module itself defines."""
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module_name
        ]
    rows = []
    for name in sorted(names, key=str.lower):
        obj = getattr(module, name)
        kind = kind_of(obj)
        sig = signature_of(obj) if kind in ("class", "function") else ""
        summary = first_line(obj)
        if kind == "constant":
            summary = summary or f"= {obj!r}"
        rows.append((name, kind, sig, summary))
    return module, rows


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
        "Narrative guides: [ARCHITECTURE](ARCHITECTURE.md), "
        "[MODELS](MODELS.md), [POWER](POWER.md) (declarative rail-graph "
        "topologies, bit-exact solve conventions, the registry), "
        "[RUNNER](RUNNER.md), [FAULTS](FAULTS.md), "
        "[FLEET](FLEET.md) (cohort-vectorized mega-fleet engine, "
        "bit-exactness contract, fallback rules), "
        "[PERF](PERF.md) (fast-forward accelerator, profiling, benchmark "
        "regression gate), [LINTING](LINTING.md) (domain-aware static "
        "analysis: unit suffixes, determinism, API contracts).",
        "",
    ]
    for module_name in module_names():
        module, rows = collect(module_name)
        lines.append(f"## `{module_name}`")
        lines.append("")
        module_doc = first_line(module)
        if module_doc:
            lines.append(module_doc)
            lines.append("")
        for name, kind, sig, summary in rows:
            entry = f"- **`{name}{sig}`** ({kind})"
            if summary:
                entry += f" — {summary}"
            lines.append(entry)
        if rows:
            lines.append("")
    return "\n".join(lines)


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    out = root / "docs" / "API.md"
    out.write_text(render(), encoding="utf-8")
    print(f"wrote {out} ({out.read_text().count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
