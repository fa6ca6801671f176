"""Shared fixtures: lint a snippet as if it lived at a repo path."""

import textwrap

import pytest

from repro.analysis import default_rules
from repro.analysis.driver import analyze_paths


@pytest.fixture
def lint_snippet(tmp_path):
    """Write ``code`` at ``relpath`` under a fake tree and lint it.

    ``relpath`` controls the module name the scoped rules see:
    ``repro/sim/engine.py`` lints as ``repro.sim.engine``.
    """

    def _lint(code, relpath="repro/core/module.py", rules=None):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
        return analyze_paths(
            [tmp_path],
            rules if rules is not None else default_rules(),
            root=tmp_path,
        )

    return _lint


def rule_ids(findings):
    return [f.rule_id for f in findings]
