"""Property test: suffix-consistent generated code never trips a rule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.driver import analyze_paths
from repro.analysis.rules_units import (
    UnitBareSiLiteralRule,
    UnitBindingMismatchRule,
    UnitMixedArithmeticRule,
)

# dB arithmetic has its own algebra (tested separately); the linear
# dimensions below are freely addable within themselves.
LINEAR_SUFFIXES = ("v", "a", "w", "j", "s", "hz", "f", "ohm", "m", "kg")

STEMS = ("rail", "load", "sense", "drop", "peak", "sleep", "wake",
         "burst", "settle", "limit")


@st.composite
def consistent_module(draw):
    """Source text whose every binding and +/- is dimension-consistent.

    Each generated function takes suffix-tagged parameters, adds
    same-suffix locals, and is called with arguments whose names carry
    the *matching* suffix — the convention the codebase follows, which
    must lint clean by construction.
    """
    lines = []
    calls = []
    n_funcs = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_funcs):
        n_params = draw(st.integers(min_value=1, max_value=3))
        suffixes = draw(st.lists(st.sampled_from(LINEAR_SUFFIXES),
                                 min_size=n_params, max_size=n_params))
        stems = draw(st.lists(st.sampled_from(STEMS), min_size=n_params,
                              max_size=n_params, unique=True))
        params = [f"{stem}_{suffix}"
                  for stem, suffix in zip(stems, suffixes)]
        lines.append(f"def fn_{i}({', '.join(params)}):")
        # same-dimension arithmetic inside the body
        body_suffix = suffixes[0]
        lines.append(f"    total_{body_suffix} = "
                     f"{params[0]} + {params[0]} - {params[0]}")
        lines.append(f"    return total_{body_suffix}")
        # a call site whose argument names match each parameter's suffix
        args = [f"arg{k}_{suffix}" for k, suffix in enumerate(suffixes)]
        for arg in args:
            calls.append(f"{arg} = 0.5")
        use_keywords = draw(st.booleans())
        if use_keywords:
            bound = [f"{p}={a}" for p, a in zip(params, args)]
        else:
            bound = args
        calls.append(f"res_{i}_{body_suffix} = "
                     f"fn_{i}({', '.join(bound)})")
    return "\n".join(lines + calls) + "\n"


@settings(max_examples=60, deadline=None)
@given(consistent_module())
def test_suffix_consistent_code_has_zero_unit_findings(tmp_path_factory,
                                                       source):
    tmp_path = tmp_path_factory.mktemp("consistent")
    target = tmp_path / "repro" / "generated.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    findings = analyze_paths(
        [tmp_path],
        [UnitBindingMismatchRule(), UnitMixedArithmeticRule(),
         UnitBareSiLiteralRule()],
        root=tmp_path,
    )
    assert findings == [], f"false positives on consistent code:\n{source}"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LINEAR_SUFFIXES), st.sampled_from(LINEAR_SUFFIXES))
def test_cross_suffix_addition_flagged_iff_dimensions_differ(
        tmp_path_factory, left, right):
    tmp_path = tmp_path_factory.mktemp("arith")
    target = tmp_path / "repro" / "arith.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f"mix = left_{left} + right_{right}\n",
                      encoding="utf-8")
    findings = analyze_paths(
        [tmp_path], [UnitMixedArithmeticRule()], root=tmp_path)
    if left == right:
        assert findings == []
    else:
        assert [f.rule_id for f in findings] == ["UNIT002"]
