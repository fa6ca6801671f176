"""Reporter stability and finding ordering: CI artifacts must be
byte-identical across runs and across checkout locations."""

import textwrap

from repro.analysis import default_rules
from repro.analysis.driver import analyze_paths, finalize_findings
from repro.analysis.findings import Finding
from repro.analysis.report import render_json

TREE = {
    "repro/alpha.py": """
        import random
        jitter = random.random()

        def radio_budget(bus_v, load_a):
            return bus_v + load_a
    """,
    "repro/beta.py": """
        def drain(sleep_w, idle_a):
            sleep_w += idle_a
            return sleep_w
    """,
}


def write_tree(root):
    for relpath, code in TREE.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))


def lint(root):
    return analyze_paths([root], default_rules(), root=root)


def test_json_report_is_byte_identical_across_runs(tmp_path):
    write_tree(tmp_path)
    first = render_json(lint(tmp_path), [])
    second = render_json(lint(tmp_path), [])
    assert first == second


def test_report_is_independent_of_absolute_repo_path(tmp_path):
    root_a = tmp_path / "checkout-a" / "deeply" / "nested"
    root_b = tmp_path / "b"
    root_a.mkdir(parents=True)
    root_b.mkdir()
    write_tree(root_a)
    write_tree(root_b)
    findings_a = lint(root_a)
    findings_b = lint(root_b)
    assert render_json(findings_a, []) == render_json(findings_b, [])
    assert [f.fingerprint for f in findings_a] \
        == [f.fingerprint for f in findings_b]


def test_findings_sorted_by_path_line_rule(tmp_path):
    write_tree(tmp_path)
    findings = lint(tmp_path)
    assert findings == sorted(findings, key=Finding.sort_key)
    assert len(findings) >= 3  # DET001 + two UNIT002 findings


def test_finalize_deduplicates_and_orders():
    def make(path, line, rule_id):
        return Finding(path=path, line=line, col=0, rule_id=rule_id,
                       rule_name="r", severity="error", message="m",
                       snippet="s")

    later = make("b.py", 2, "UNIT002")
    earlier = make("a.py", 9, "DET001")
    duplicate = make("b.py", 2, "UNIT002")
    out = finalize_findings([later, earlier, duplicate])
    assert out == [earlier, later]


def test_overlapping_path_arguments_do_not_duplicate(tmp_path):
    write_tree(tmp_path)
    once = analyze_paths([tmp_path], default_rules(), root=tmp_path)
    twice = analyze_paths([tmp_path, tmp_path / "repro"],
                          default_rules(), root=tmp_path)
    assert once == twice
