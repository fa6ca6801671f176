"""Acceptance fixtures: bugs only the flow-sensitive tier catches.

Each fixture seeds a realistic defect, shows the PR-4-era AST-local
rule set stays silent on it, and pins the new rule that catches it.
These are the tentpole's contract: delete them only with a better
replacement.
"""

from repro.analysis import (
    DynamicCodeRule,
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
