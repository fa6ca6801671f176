"""The PR 9 lint flags: --kernels, --no-flow, --changed, --check-baseline."""

import json
import subprocess
import textwrap

from repro.cli import main


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


def write_flow_bug(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent("""
        def radio_budget(bus_v, drop_v, load_a):
            held = bus_v - drop_v
            return held + load_a
    """))
    return target


def test_flow_bug_fails_by_default(capsys, tmp_path):
    write_flow_bug(tmp_path)
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(tmp_path / "b.json"))
    assert code == 1
    assert "UNIT004" in out


def test_no_flow_drops_flow_findings(capsys, tmp_path):
    write_flow_bug(tmp_path)
    code, out = run_lint(capsys, str(tmp_path), "--no-flow",
                         "--baseline", str(tmp_path / "b.json"))
    assert code == 0


def test_kernels_flag_audits_generated_kernels(capsys, tmp_path):
    (tmp_path / "clean.py").write_text("x = 1\n")
    code, out = run_lint(capsys, str(tmp_path), "--kernels",
                         "--baseline", str(tmp_path / "b.json"))
    assert code == 0  # every registered kernel audits clean


def test_list_rules_includes_new_families(capsys):
    code, out = run_lint(capsys, "--list-rules")
    assert code == 0
    for rule_id in ("UNIT004", "UNIT005", "KER001", "KER002"):
        assert rule_id in out


# -- --check-baseline --------------------------------------------------------


def test_check_baseline_fresh_passes(capsys, tmp_path):
    target = write_flow_bug(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(baseline), "--check-baseline")
    assert code == 0
    assert "up to date" in out


def test_check_baseline_stale_fails(capsys, tmp_path):
    target = write_flow_bug(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    # Fix the bug: the recorded fingerprint goes stale.
    target.write_text("def radio_budget(bus_v):\n    return bus_v\n")
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(baseline), "--check-baseline")
    assert code == 1
    assert "stale" in out
    assert "UNIT004" in out


def test_check_baseline_reports_each_stale_fingerprint(capsys, tmp_path):
    target = write_flow_bug(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    recorded = {e["fingerprint"]
                for e in json.loads(baseline.read_text())["findings"]}
    target.write_text("def radio_budget(bus_v):\n    return bus_v\n")
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(baseline), "--check-baseline")
    assert code == 1
    assert all(fp in out for fp in recorded)


# -- --changed ---------------------------------------------------------------


def git(tmp_path, *argv):
    subprocess.run(["git", *argv], cwd=tmp_path, check=True,
                   capture_output=True,
                   env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL":
                        "t@t", "HOME": str(tmp_path), "PATH": "/usr/bin:/bin"})


def make_repo(tmp_path):
    git(tmp_path, "init", "-q")
    clean = tmp_path / "repro" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("x = 1\n")
    dirty = tmp_path / "repro" / "dirty.py"
    dirty.write_text("y = 2\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")
    return clean, dirty


def test_changed_lints_only_touched_files(capsys, tmp_path, monkeypatch):
    clean, dirty = make_repo(tmp_path)
    dirty.write_text(textwrap.dedent("""
        def radio_budget(bus_v, drop_v, load_a):
            held = bus_v - drop_v
            return held + load_a
    """))
    monkeypatch.chdir(tmp_path)
    code, out = run_lint(capsys, "repro", "--changed", "HEAD",
                         "--baseline", "b.json")
    assert code == 1
    assert "dirty.py" in out
    assert "clean.py" not in out


def test_changed_with_no_modifications_short_circuits(capsys, tmp_path,
                                                      monkeypatch):
    make_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = run_lint(capsys, "repro", "--changed", "HEAD",
                         "--baseline", "b.json")
    assert code == 0
    assert "nothing to lint" in out


def test_changed_ignores_files_outside_requested_paths(capsys, tmp_path,
                                                       monkeypatch):
    clean, dirty = make_repo(tmp_path)
    other = tmp_path / "elsewhere.py"
    other.write_text("import random\nz = random.random()\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "second")
    other.write_text("import random\nz = random.random()\nw = 3\n")
    monkeypatch.chdir(tmp_path)
    code, out = run_lint(capsys, "repro", "--changed", "HEAD",
                         "--baseline", "b.json")
    assert code == 0  # elsewhere.py changed, but it is outside repro/
