"""``tools/bench_baseline.py``: report metadata and the ``--diff`` mode.

These tests import the tool as a module and exercise the pure pieces
(report writing, regression check, diff) on synthetic tables — no
benchmark run, so they stay fast enough for tier 1.
"""

import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_baseline():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        module = importlib.import_module("bench_baseline")
    finally:
        sys.path.pop(0)
    return module


TABLE_A = {
    "benchmarks/test_x.py::test_one": {
        "min_s": 1.0, "mean_s": 1.1, "rounds": 3},
    "benchmarks/test_x.py::test_two": {
        "min_s": 0.5, "mean_s": 0.6, "rounds": 3},
}

TABLE_B = {
    "benchmarks/test_x.py::test_one": {
        "min_s": 2.0, "mean_s": 2.2, "rounds": 3},
    "benchmarks/test_x.py::test_three": {
        "min_s": 0.1, "mean_s": 0.2, "rounds": 3},
}


def test_report_embeds_environment_metadata(bench_baseline, tmp_path):
    import platform

    import numpy

    path = bench_baseline.write_report(TABLE_A, str(tmp_path))
    report = json.loads(pathlib.Path(path).read_text())
    assert report["schema"] == 2
    assert report["python"] == platform.python_version()
    assert report["numpy"] == numpy.__version__
    assert report["machine"] == platform.machine()
    assert report["platform"] == platform.platform()
    assert report["benchmarks"] == TABLE_A


def test_diff_prints_ratios_and_environment_skew(bench_baseline,
                                                 tmp_path, capsys):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(json.dumps({
        "schema": 2, "sha": "aaa", "python": "3.11.1", "numpy": "1.26.0",
        "machine": "x86_64", "platform": "Linux-old",
        "benchmarks": TABLE_A,
    }))
    path_b.write_text(json.dumps({
        "schema": 2, "sha": "bbb", "python": "3.11.1", "numpy": "1.26.0",
        "machine": "x86_64", "platform": "Linux-new",
        "benchmarks": TABLE_B,
    }))
    code = bench_baseline.diff(str(path_a), str(path_b))
    assert code == 0
    out = capsys.readouterr().out
    assert "sha aaa" in out and "sha bbb" in out
    # Shared benchmark: ratio 2.0/1.0 -> 2.00x.
    assert "2.00x" in out
    # Unshared benchmarks are listed, not silently dropped.
    assert "(only in A)" in out
    assert "(only in B)" in out
    # Environment skew is flagged.
    assert "differs" in out
    assert out.count("differs") == 1  # only the platform row


def test_diff_with_no_common_benchmarks_fails(bench_baseline,
                                              tmp_path, capsys):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(json.dumps({"benchmarks": {"x": {"min_s": 1.0}}}))
    path_b.write_text(json.dumps({"benchmarks": {"y": {"min_s": 1.0}}}))
    assert bench_baseline.diff(str(path_a), str(path_b)) == 2


def test_main_diff_mode_runs_nothing(bench_baseline, tmp_path, capsys,
                                     monkeypatch):
    """``--diff`` must never invoke pytest-benchmark."""
    def boom(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("--diff ran benchmarks")

    monkeypatch.setattr(bench_baseline, "run_benchmarks", boom)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    for path in (path_a, path_b):
        path.write_text(json.dumps({"benchmarks": TABLE_A}))
    code = bench_baseline.main(["--diff", str(path_a), str(path_b)])
    assert code == 0
    assert "1.00x" in capsys.readouterr().out


def test_check_passes_within_ratio_and_fails_beyond(bench_baseline,
                                                    tmp_path, capsys):
    baseline_path = tmp_path / "base.json"
    baseline_path.write_text(json.dumps({"benchmarks": TABLE_A}))
    slowed = {name: dict(stats, min_s=stats["min_s"] * 3.0)
              for name, stats in TABLE_A.items()}
    assert bench_baseline.check(TABLE_A, str(baseline_path), 2.0) == 0
    assert bench_baseline.check(slowed, str(baseline_path), 2.0) == 1
