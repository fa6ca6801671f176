"""Unit-dimension rules: positive and negative fixtures per rule."""

from repro.analysis.rules_units import (
    UnitBareSiLiteralRule,
    UnitBindingMismatchRule,
    UnitMixedArithmeticRule,
)

from .conftest import rule_ids


def unit_rules():
    return [UnitBindingMismatchRule(), UnitMixedArithmeticRule(),
            UnitBareSiLiteralRule()]


# ---------------------------------------------------------------------------
# UNIT001: binding mismatches
# ---------------------------------------------------------------------------


def test_volts_for_amps_keyword_swap_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        def set_bias(bias_v):
            return bias_v

        limit_a = 0.5
        set_bias(bias_v=limit_a)
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT001"]
    assert "current" in findings[0].message
    assert "voltage" in findings[0].message


def test_matching_keyword_suffix_is_clean(lint_snippet):
    findings = lint_snippet(
        """
        def set_bias(bias_v):
            return bias_v

        rail_v = 1.2
        set_bias(bias_v=rail_v)
        """,
        rules=unit_rules(),
    )
    assert findings == []


def test_positional_swap_resolved_through_index(lint_snippet):
    findings = lint_snippet(
        """
        def solve(v_in_v, i_out_a):
            return v_in_v * i_out_a

        sense_a = 0.001
        rail_v = 1.2
        solve(sense_a, rail_v)
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT001", "UNIT001"]


def test_positional_swap_on_method_skips_self(lint_snippet):
    findings = lint_snippet(
        """
        class Converter:
            def solve(self, v_in_v):
                return v_in_v

        load_a = 0.004
        Converter().solve(load_a)
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT001"]


def test_ambiguous_function_name_stays_silent(lint_snippet):
    # Two defs named `solve` with different dimension signatures: the
    # index refuses to guess, so the call is not checked positionally.
    findings = lint_snippet(
        """
        def solve(v_in_v):
            return v_in_v

        class Other:
            def solve(self, i_in_a):
                return i_in_a

        load_a = 0.004
        solve(load_a)
        """,
        rules=unit_rules(),
    )
    assert findings == []


def test_assignment_mismatch_to_attribute(lint_snippet):
    findings = lint_snippet(
        """
        class Rail:
            def update(self, sense_a):
                self.level_v = sense_a
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT001"]


# ---------------------------------------------------------------------------
# UNIT002: mixed-dimension arithmetic
# ---------------------------------------------------------------------------


def test_adding_volts_and_amps_is_caught(lint_snippet):
    findings = lint_snippet("total = drop_v + load_a\n", rules=unit_rules())
    assert rule_ids(findings) == ["UNIT002"]
    assert "voltage" in findings[0].message
    assert "current" in findings[0].message


def test_same_dimension_arithmetic_is_clean(lint_snippet):
    findings = lint_snippet(
        "total_v = drop_v + ir_v - offset_v\n", rules=unit_rules())
    assert findings == []


def test_augassign_mismatch_is_caught(lint_snippet):
    findings = lint_snippet(
        """
        def tick(budget_j, step_s):
            budget_j += step_s
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT002"]


def test_link_budget_db_arithmetic_is_allowed(lint_snippet):
    findings = lint_snippet(
        "received_dbm = tx_dbm + antenna_gain_db - path_loss_db\n",
        rules=unit_rules(),
    )
    assert findings == []


def test_adding_two_absolute_dbm_levels_is_caught(lint_snippet):
    findings = lint_snippet(
        "nonsense = tx_dbm + rx_dbm\n", rules=unit_rules())
    assert rule_ids(findings) == ["UNIT002"]
    assert "absolute dBm" in findings[0].message


def test_dbm_difference_is_a_gain(lint_snippet):
    findings = lint_snippet(
        "margin_db = received_dbm - sensitivity_dbm\n", rules=unit_rules())
    assert findings == []


# ---------------------------------------------------------------------------
# UNIT003: bare SI literals
# ---------------------------------------------------------------------------


def test_bare_si_literal_assigned_to_suffixed_name(lint_snippet):
    findings = lint_snippet("settle_s = 5e-3\n", rules=unit_rules())
    assert rule_ids(findings) == ["UNIT003"]
    assert "milli(5.0)" in findings[0].message


def test_bare_si_literal_as_suffixed_default(lint_snippet):
    findings = lint_snippet(
        """
        def sample(settle_s=4.0e-3):
            return settle_s
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT003"]
    assert "milli(4.0)" in findings[0].message


def test_plain_decimal_is_not_flagged(lint_snippet):
    findings = lint_snippet("settle_s = 0.004\n", rules=unit_rules())
    assert findings == []


def test_unsuffixed_name_is_not_flagged(lint_snippet):
    findings = lint_snippet("epsilon = 1e-9\n", rules=unit_rules())
    assert findings == []


def test_epsilon_against_suffixed_quantity_is_flagged(lint_snippet):
    findings = lint_snippet(
        """
        def over(height_m, limit_m):
            return height_m > limit_m + 1e-12
        """,
        rules=unit_rules(),
    )
    assert rule_ids(findings) == ["UNIT003"]
    assert "pico(1.0)" in findings[0].message


def test_units_module_itself_is_exempt(lint_snippet):
    findings = lint_snippet(
        "def milli(value):\n    return value * 1e-3\nscale_s = 1e-3\n",
        relpath="repro/units.py",
        rules=unit_rules(),
    )
    assert findings == []
