#!/usr/bin/env python3
"""Generate docs/API.md: an index of the public API from live docstrings.

Walks every ``repro`` subpackage, collects the symbols each package
exports via ``__all__`` (falling back to public module members), and
writes one line per symbol — kind, signature, and the first docstring
line.  Run after API changes::

    python tools/gen_api_docs.py

The test suite asserts the committed file is current.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.sim.fleet_engine",
    "repro.sim.checkpoint",
    "repro.runner",
    "repro.faults",
    "repro.power",
    "repro.power.graph",
    "repro.power.rail_topologies",
    "repro.power.compile",
    "repro.storage",
    "repro.harvest",
    "repro.mcu",
    "repro.radio",
    "repro.sensors",
    "repro.net",
    "repro.net.cohort",
    "repro.board",
    "repro.core",
    "repro.campaigns",
    "repro.units",
    "repro.errors",
    "repro.cli",
    "repro.analysis",
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
    if inspect.ismodule(obj):
        return "module"
    return "constant"


def collect(package_name: str):
    module = importlib.import_module(package_name)
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    rows = []
    for name in sorted(names, key=str.lower):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        kind = kind_of(obj)
        if kind == "module":
            continue  # subpackage re-exports are listed under themselves
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
    for package_name in PACKAGES:
        module, rows = collect(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        package_doc = first_line(module)
        if package_doc:
            lines.append(package_doc)
            lines.append("")
        for name, kind, sig, summary in rows:
            entry = f"- **`{name}{sig}`** ({kind})"
            if summary:
                entry += f" — {summary}"
            lines.append(entry)
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
