"""Keep docs/API.md in sync with the live public API."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_api_docs_are_current(tmp_path):
    """Regenerating the API index must reproduce the committed file."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_api_docs
    finally:
        sys.path.pop(0)
    committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert gen_api_docs.render() == committed, (
        "docs/API.md is stale; run `python tools/gen_api_docs.py`"
    )


def test_api_docs_cover_every_package():
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for module in ("repro.sim.engine", "repro.power.graph",
                   "repro.storage.nimh", "repro.harvest.tire",
                   "repro.mcu.msp430", "repro.radio.link",
                   "repro.sensors.tpms", "repro.net.fleet",
                   "repro.board.stack", "repro.core.node",
                   "repro.core.builder", "repro.analysis"):
        assert f"## `{module}`" in text


def test_generator_runs_as_script():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_every_public_symbol_has_a_docstring():
    """Production bar: no undocumented public API."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_api_docs
    finally:
        sys.path.pop(0)
    undocumented = []
    for module in gen_api_docs.module_names():
        _, rows = gen_api_docs.collect(module)
        for name, kind, _, summary in rows:
            if kind in ("class", "function") and not summary:
                undocumented.append(f"{module}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"
