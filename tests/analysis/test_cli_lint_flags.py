"""The lint flags: --kernels, --changed, --check-baseline, --list-rules."""

import json
import subprocess
import textwrap

from repro.cli import main


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


#: One DET001 finding (an unseeded module-level draw).
UNSEEDED_DRAW = textwrap.dedent("""
    import random

    def jitter_s():
        return random.random()
""")


def write_unseeded_draw(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(UNSEEDED_DRAW)
    return target


def test_kernels_flag_audits_generated_kernels(capsys, tmp_path):
    (tmp_path / "clean.py").write_text("x = 1\n")
    code, out = run_lint(capsys, str(tmp_path), "--kernels",
                         "--baseline", str(tmp_path / "b.json"))
    assert code == 0  # every registered kernel audits clean


def test_list_rules_includes_new_families(capsys):
    code, out = run_lint(capsys, "--list-rules")
    assert code == 0
    assert "KER002" in out
    for rule_id in ("UNIT004", "UNIT005", "KER001", "API005"):
        assert rule_id not in out


# -- --check-baseline --------------------------------------------------------


def test_check_baseline_fresh_passes(capsys, tmp_path):
    target = write_unseeded_draw(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(baseline), "--check-baseline")
    assert code == 0
    assert "up to date" in out


def test_check_baseline_stale_fails(capsys, tmp_path):
    target = write_unseeded_draw(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    # Fix the bug: the recorded fingerprint goes stale.
    target.write_text("def jitter_s():\n    return 0.0\n")
    code, out = run_lint(capsys, str(tmp_path),
                         "--baseline", str(baseline), "--check-baseline")
    assert code == 1
    assert "stale" in out
    assert "DET001" in out


def test_check_baseline_reports_each_stale_fingerprint(capsys, tmp_path):
    target = write_unseeded_draw(tmp_path)
    baseline = tmp_path / "b.json"
    run_lint(capsys, str(tmp_path), "--baseline", str(baseline),
             "--update-baseline")
    recorded = {e["fingerprint"]
                for e in json.loads(baseline.read_text())["findings"]}
    target.write_text("def jitter_s():\n    return 0.0\n")
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
    dirty.write_text(UNSEEDED_DRAW)
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


def baselined_repo(capsys, tmp_path, monkeypatch):
    """A repo whose committed baseline holds one justified finding."""
    clean, dirty = make_repo(tmp_path)
    dirty.write_text(UNSEEDED_DRAW)
    monkeypatch.chdir(tmp_path)
    run_lint(capsys, "repro", "--baseline", "b.json", "--update-baseline")
    data = json.loads((tmp_path / "b.json").read_text())
    data["findings"][0]["reason"] = "fixture: accepted on purpose"
    (tmp_path / "b.json").write_text(json.dumps(data))
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "baseline")
    clean.write_text("x = 1  # touched\n")
    return tmp_path / "b.json"


def test_changed_refuses_update_baseline(capsys, tmp_path, monkeypatch):
    baseline = baselined_repo(capsys, tmp_path, monkeypatch)
    before = baseline.read_bytes()
    code = main(["lint", "repro", "--changed", "HEAD", "--baseline",
                 "b.json", "--update-baseline"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--changed" in captured.err
    assert captured.out == ""
    assert baseline.read_bytes() == before  # reasons survive


def test_changed_refuses_check_baseline(capsys, tmp_path, monkeypatch):
    baselined_repo(capsys, tmp_path, monkeypatch)
    code = main(["lint", "repro", "--changed", "HEAD", "--baseline",
                 "b.json", "--check-baseline"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--changed" in captured.err
    assert "stale" not in captured.out
    # The same baseline is up to date against the whole tree.
    code, out = run_lint(capsys, "repro", "--baseline", "b.json",
                         "--check-baseline")
    assert code == 0
    assert "up to date" in out
