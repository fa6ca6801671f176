"""The flow-sensitive abstract interpreter (UNIT004/UNIT005)."""

from repro.analysis.rules_flow_units import UnitFlowMismatchRule, UnitReturnMismatchRule
from repro.analysis.rules_units import UnitMixedArithmeticRule

from .conftest import rule_ids

FLOW_RULES = [UnitFlowMismatchRule(), UnitReturnMismatchRule()]


def flow_lint(lint_snippet, code, **kwargs):
    return lint_snippet(code, rules=FLOW_RULES, **kwargs)


# -- UNIT004: dimension conflicts through assignment hops -------------------


def test_one_hop_product_conflict(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def budget(bus_v, radio_a):
            p = bus_v * radio_a
            return p + radio_a
    """)
    assert rule_ids(findings) == ["UNIT004"]
    assert "power and current" in findings[0].message


def test_multi_hop_propagation(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def budget(bus_v, radio_a):
            p = bus_v * radio_a
            q = p
            r = q
            return r + radio_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_ratio_table_division(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def check(stored_j, sleep_w, idle_a):
            runtime = stored_j / sleep_w
            return runtime + idle_a
    """)
    assert rule_ids(findings) == ["UNIT004"]
    assert "time and current" in findings[0].message


def test_attribute_paths_are_tracked(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def tally(self, bus_v, load_a):
            self.total = bus_v * load_a
            return self.total + load_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_dict_subscript_paths_are_tracked(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def tally(bus_v, load_a):
            losses = {}
            losses["pass"] = bus_v * load_a
            return losses["pass"] + load_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_branches_merge_agreeing_dimensions(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def pick(cold, bus_v, aux_v, load_a):
            if cold:
                x = bus_v
            else:
                x = aux_v
            return x + load_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_branches_disagreeing_dimensions_stay_unknown(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def pick(cold, bus_v, load_a):
            if cold:
                x = bus_v
            else:
                x = load_a
            return x + load_a
    """)
    assert findings == []


def test_loop_widening_forgets_reassigned_names(lint_snippet):
    # x is voltage on entry but reassigned in the loop; the widened
    # environment must not claim to know its dimension afterwards.
    findings = flow_lint(lint_snippet, """
        def scan(samples, bus_v, load_a):
            x = bus_v
            for sample in samples:
                x = sample
            return x + load_a
    """)
    assert findings == []


def test_aug_assign_conflict(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def drain(sleep_w, idle_a):
            total = sleep_w
            total += idle_a
            return total
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_scalar_constant_passthrough(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def derate(bus_v, load_a):
            margin = bus_v * 0.9
            halved = margin / 2.0
            return halved + bus_v
    """)
    assert findings == []


def test_preserving_calls_keep_dimension(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def clamp(bus_v, floor_v, load_a):
            held = max(bus_v, floor_v)
            return held + load_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_call_return_dimension_via_index(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def terminal_v(charge, load_a):
            return charge * 0.1

        def check(charge, load_a):
            sag = terminal_v(charge, load_a)
            return sag + load_a
    """)
    assert rule_ids(findings) == ["UNIT004"]


def test_no_double_report_with_ast_local_rules(lint_snippet):
    # The conflict is visible without dataflow; UNIT002 owns it and
    # UNIT004 must stay silent.
    code = """
        def bad(bus_v, load_a):
            return bus_v + load_a
    """
    assert flow_lint(lint_snippet, code) == []
    ast_local = lint_snippet(code, rules=[UnitMixedArithmeticRule()])
    assert rule_ids(ast_local) == ["UNIT002"]


def test_unknown_stays_silent(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def mix(alpha, beta):
            gamma = alpha * beta
            return gamma + alpha
    """)
    assert findings == []


# -- UNIT005: return dimension vs name suffix -------------------------------


def test_return_mismatch_direct(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def projected_lifetime_s(cap_j, sleep_w):
            margin = cap_j
            return margin
    """)
    assert rule_ids(findings) == ["UNIT005"]
    assert "named as time" in findings[0].message


def test_return_match_through_ratio(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def projected_lifetime_s(cap_j, sleep_w):
            margin = cap_j / sleep_w
            return margin
    """)
    assert findings == []


def test_return_unknown_is_silent(lint_snippet):
    findings = flow_lint(lint_snippet, """
        def projected_lifetime_s(cap_j, sleep_w):
            return helper(cap_j, sleep_w)
    """)
    assert findings == []


def test_no_flow_flag_drops_flow_rules():
    from repro.analysis import default_rules

    with_flow = {r.rule_id for r in default_rules()}
    without = {r.rule_id for r in default_rules(flow=False)}
    assert {"UNIT004", "UNIT005"} <= with_flow
    assert not {"UNIT004", "UNIT005"} & without
    assert without <= with_flow
