"""Driver mechanics: fingerprints, baselines, reporters, parse errors."""

import json
import pathlib
import textwrap

from repro.analysis import default_rules
from repro.analysis.baseline import load_baseline, split_by_baseline, write_baseline
from repro.analysis.driver import analyze_paths
from repro.analysis.findings import Finding
from repro.analysis.report import render_json, render_text


def lint_tree(tmp_path, files, rules=None):
    for rel, code in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    return analyze_paths(
        [tmp_path],
        default_rules() if rules is None else rules,
        root=tmp_path,
    )


def test_findings_are_sorted_and_relative(tmp_path):
    findings = lint_tree(tmp_path, {
        "repro/b.py": "x_s = 2e-3\n",
        "repro/a.py": "y_s = 3e-3\nz_s = 4e-3\n",
    })
    assert [f.path for f in findings] == [
        "repro/a.py", "repro/a.py", "repro/b.py"]
    assert [f.line for f in findings] == [1, 2, 1]


def test_fingerprint_survives_line_shifts(tmp_path):
    before = lint_tree(tmp_path, {"repro/a.py": "gap_s = 2e-3\n"})
    after = lint_tree(tmp_path, {
        "repro/a.py": "# a comment\n\n\ngap_s = 2e-3\n"})
    assert before[0].line == 1 and after[0].line == 4
    assert before[0].fingerprint == after[0].fingerprint


def test_syntax_error_becomes_a_parse_finding(tmp_path):
    findings = lint_tree(tmp_path, {"repro/bad.py": "def broken(:\n"})
    assert [f.rule_id for f in findings] == ["PARSE000"]
    assert findings[0].severity == "error"


def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    findings = lint_tree(tmp_path, {"repro/a.py": "gap_s = 2e-3\n"})
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    new, suppressed = split_by_baseline(findings, baseline)
    assert new == [] and len(suppressed) == 1

    # a *different* violation is not suppressed
    more = lint_tree(tmp_path, {
        "repro/a.py": "gap_s = 2e-3\nwait_s = 9e-6\n"})
    new, suppressed = split_by_baseline(more, baseline)
    assert len(new) == 1 and len(suppressed) == 1
    assert new[0].snippet == "wait_s = 9e-6"


def test_baseline_reasons_survive_regeneration(tmp_path):
    findings = lint_tree(tmp_path, {"repro/a.py": "gap_s = 2e-3\n"})
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    data = json.loads(baseline_path.read_text())
    data["findings"][0]["reason"] = "measured: exact literal required"
    baseline_path.write_text(json.dumps(data))
    write_baseline(baseline_path, findings)
    data = json.loads(baseline_path.read_text())
    assert data["findings"][0]["reason"] == (
        "measured: exact literal required")


def test_render_text_reports_location_and_summary(tmp_path):
    findings = lint_tree(tmp_path, {"repro/a.py": "gap_s = 2e-3\n"})
    text = render_text(findings)
    assert "repro/a.py:1:9: UNIT003" in text
    assert "1 finding(s): 0 error(s), 1 warning(s)" in text
    assert render_text([], suppressed_count=2).startswith("clean")


def test_render_json_is_machine_readable(tmp_path):
    findings = lint_tree(tmp_path, {"repro/a.py": "gap_s = 2e-3\n"})
    payload = json.loads(render_json(findings, []))
    assert payload["summary"] == {
        "new": 1, "errors": 0, "warnings": 1, "baselined": 0}
    (entry,) = payload["findings"]
    assert entry["rule"] == "UNIT003"
    assert entry["path"] == "repro/a.py"
    assert entry["fingerprint"] == findings[0].fingerprint


def test_finding_is_frozen_and_hashable():
    finding = Finding(path="a.py", line=1, col=0, rule_id="UNIT003",
                      rule_name="unit-bare-si-literal", severity="warning",
                      message="m", snippet="s")
    assert isinstance(hash(finding), int)
    assert len(finding.fingerprint) == 16


def test_single_file_path_is_accepted(tmp_path):
    target = tmp_path / "repro" / "one.py"
    target.parent.mkdir(parents=True)
    target.write_text("gap_s = 2e-3\n")
    findings = analyze_paths([target], default_rules(), root=tmp_path)
    assert [f.rule_id for f in findings] == ["UNIT003"]
    assert findings[0].path == "repro/one.py"


def test_paths_outside_root_fall_back_to_absolute(tmp_path):
    target = tmp_path / "repro" / "one.py"
    target.parent.mkdir(parents=True)
    target.write_text("gap_s = 2e-3\n")
    other_root = tmp_path / "elsewhere"
    other_root.mkdir()
    findings = analyze_paths([target], default_rules(), root=other_root)
    assert findings[0].path == pathlib.Path(target).as_posix()
