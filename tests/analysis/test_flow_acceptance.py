"""Acceptance fixtures: bugs only the flow-sensitive tier catches.

Each fixture seeds a realistic defect, shows the PR-4-era AST-local
rule set stays silent on it, and pins the new rule that catches it.
These are the tentpole's contract: delete them only with a better
replacement.
"""

from repro.analysis import (
    DynamicCodeRule,
    MirrorConstantParityRule,
    MissingSlotsRule,
    MutableDefaultRule,
    UnfrozenFaultEventRule,
    UnfrozenRailSpecRule,
    UnitBareSiLiteralRule,
    UnitBindingMismatchRule,
    UnitFlowMismatchRule,
    UnitMixedArithmeticRule,
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)

from .conftest import rule_ids


def legacy_rules():
    """The exact rule set PR 4 shipped (AST-local, per-statement)."""
    return [
        UnitBindingMismatchRule(),
        UnitMixedArithmeticRule(),
        UnitBareSiLiteralRule(),
        UnseededRandomRule(),
        WallClockRule(),
        UnorderedIterationRule(),
        DynamicCodeRule(),
        UnfrozenFaultEventRule(),
        MissingSlotsRule(),
        MutableDefaultRule(),
        UnfrozenRailSpecRule(),
    ]


# A voltage is computed, stored, and one assignment hop later added to
# a current — per-statement suffix matching sees `held + load_a` where
# `held` carries no suffix, so every PR 4 rule is blind to it.
ONE_HOP_DIMENSION_BUG = """
    def radio_budget(bus_v, drop_v, load_a):
        held = bus_v - drop_v
        total = held + load_a
        return total
"""


def test_legacy_rules_miss_one_hop_dimension_bug(lint_snippet):
    assert lint_snippet(ONE_HOP_DIMENSION_BUG, rules=legacy_rules()) == []


def test_flow_rule_catches_one_hop_dimension_bug(lint_snippet):
    findings = lint_snippet(ONE_HOP_DIMENSION_BUG,
                            rules=[UnitFlowMismatchRule()])
    assert rule_ids(findings) == ["UNIT004"]
    assert "voltage and current" in findings[0].message
    assert "assignment dataflow" in findings[0].message


# The cohort-mirror variant: a degradation knee constant edited in the
# elementwise mirror only.  PR 4 had no concept of mirrors at all.
MIRROR_DRIFT_SCALAR = """
    class NiMHCell:
        def internal_resistance(self, depth):
            return self.esr_ohm * (1.0 + 4.0 * max(depth - 0.2, 0.0))
"""

MIRROR_DRIFT_BATCH = """
    import numpy as np

    PARITY_MIRRORS = {
        "Machine.resistance": ("repro.scalar:NiMHCell.internal_resistance",),
    }

    class Machine:
        def resistance(self, depth):
            return self.esr_ohm * (1.0 + 4.5 * np.maximum(depth - 0.2, 0.0))
"""


def lint_pair(tmp_path, rules):
    import pathlib
    import textwrap

    from repro.analysis import analyze_paths

    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "scalar.py").write_text(textwrap.dedent(MIRROR_DRIFT_SCALAR))
    (pkg / "mirror.py").write_text(textwrap.dedent(MIRROR_DRIFT_BATCH))
    return analyze_paths([tmp_path], rules, root=tmp_path)


def test_legacy_rules_miss_mirror_constant_drift(tmp_path):
    assert lint_pair(tmp_path, legacy_rules()) == []


def test_parity_rule_catches_mirror_constant_drift(tmp_path):
    findings = lint_pair(tmp_path, [MirrorConstantParityRule()])
    assert rule_ids(findings) == ["VEC002"]
    assert "4.5" in findings[0].message
