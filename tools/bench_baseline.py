#!/usr/bin/env python
"""Benchmark baseline recorder / regression gate.

Runs the ``benchmarks/`` suite under pytest-benchmark with tight
round caps, distils the per-test timings into a compact
``BENCH_<shortsha>.json``, and — in ``--check`` mode — fails when any
benchmark has regressed more than ``--ratio`` (default 2x) against a
committed baseline.  This is what CI's ``perf-smoke`` job runs; the
workflow for refreshing the baseline is documented in ``docs/PERF.md``.

Usage::

    python tools/bench_baseline.py                  # record BENCH_<sha>.json
    python tools/bench_baseline.py --check benchmarks/BENCH_baseline.json
    python tools/bench_baseline.py --all --out-dir /tmp
    python tools/bench_baseline.py --diff BENCH_a.json BENCH_b.json

Comparisons use each benchmark's *minimum* observed round time — the
statistic least sensitive to scheduler noise — and only benchmarks
present in both runs gate the check, so adding a benchmark never breaks
an old baseline.  Reports embed the python/numpy/platform versions so a
cross-machine trajectory stays interpretable; ``--diff`` compares two
recorded reports (printing per-benchmark ratios and any environment
skew) without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The wall-clock-sensitive files the perf gate watches by default.  The
#: paper-experiment benchmarks (E1..E28) assert *shapes*, not speed, and
#: already run in CI's benchmark-smoke job; timing them here would only
#: add noise to the regression gate.
DEFAULT_TARGETS = [
    "benchmarks/test_sim_performance.py",
    "benchmarks/test_e29_year_scale.py",
    "benchmarks/test_train_solve_throughput.py",
    "benchmarks/test_fleet_cohort_throughput.py",
    "benchmarks/test_checkpoint_store_throughput.py",
    "benchmarks/test_node_event_path.py",
]


def git_short_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def run_benchmarks(targets, pytest_args):
    """Run pytest-benchmark over ``targets``; return its parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = os.path.join(tmp, "pytest-benchmark.json")
        command = [
            sys.executable, "-m", "pytest", "-q",
            "--benchmark-only",
            "--benchmark-max-time=0.5",
            "--benchmark-min-rounds=1",
            "--benchmark-warmup=off",
            f"--benchmark-json={raw_path}",
            *targets,
            *pytest_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            raise SystemExit(
                f"benchmark run failed (pytest exit {result.returncode})"
            )
        with open(raw_path) as handle:
            return json.load(handle)


def distil(raw) -> Dict[str, Dict[str, float]]:
    """Reduce pytest-benchmark's report to {fullname: {min_s, mean_s, rounds}}."""
    table = {}
    for bench in raw["benchmarks"]:
        stats = bench["stats"]
        table[bench["fullname"]] = {
            "min_s": stats["min"],
            "mean_s": stats["mean"],
            "rounds": stats["rounds"],
        }
    return table


def environment_metadata() -> Dict[str, str]:
    """Interpreter/library/host fingerprint embedded in every report."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def write_report(table, out_dir: str) -> str:
    sha = git_short_sha()
    report = {
        "schema": 2,
        "sha": sha,
        **environment_metadata(),
        "benchmarks": table,
    }
    path = os.path.join(out_dir, f"BENCH_{sha}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def check(table, baseline_path: str, ratio: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)["benchmarks"]
    shared = sorted(set(table) & set(baseline))
    if not shared:
        print("error: no benchmarks in common with the baseline",
              file=sys.stderr)
        return 2
    failures = []
    print(f"\n{'benchmark':<70} {'base':>8} {'now':>8} {'ratio':>6}")
    for name in shared:
        base = baseline[name]["min_s"]
        now = table[name]["min_s"]
        rel = now / base if base > 0 else float("inf")
        flag = "  FAIL" if rel > ratio else ""
        print(f"{name:<70} {base:7.3f}s {now:7.3f}s {rel:5.2f}x{flag}")
        if rel > ratio:
            failures.append(name)
    skipped = sorted(set(table) - set(baseline))
    for name in skipped:
        print(f"{name:<70} (new — not gated)")
    if failures:
        print(f"\nperf regression: {len(failures)} benchmark(s) slower than "
              f"{ratio:.1f}x baseline", file=sys.stderr)
        return 1
    print(f"\nall {len(shared)} gated benchmarks within {ratio:.1f}x of "
          f"baseline")
    return 0


def diff(path_a: str, path_b: str) -> int:
    """Compare two recorded reports: per-benchmark B/A ratios plus any
    environment skew (cross-machine numbers are only comparable when the
    python/numpy/platform rows match)."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A: {path_a} (sha {a.get('sha', '?')})")
    print(f"B: {path_b} (sha {b.get('sha', '?')})")
    for field in ("python", "numpy", "machine", "platform"):
        va, vb = a.get(field, "?"), b.get(field, "?")
        marker = "" if va == vb else "   <-- differs"
        print(f"  {field:<9} A={va}  B={vb}{marker}")
    bench_a, bench_b = a["benchmarks"], b["benchmarks"]
    shared = sorted(set(bench_a) & set(bench_b))
    if not shared:
        print("error: no benchmarks in common", file=sys.stderr)
        return 2
    print(f"\n{'benchmark':<70} {'A':>8} {'B':>8} {'B/A':>6}")
    for name in shared:
        base = bench_a[name]["min_s"]
        now = bench_b[name]["min_s"]
        rel = now / base if base > 0 else float("inf")
        print(f"{name:<70} {base:7.3f}s {now:7.3f}s {rel:5.2f}x")
    for name in sorted(set(bench_a) ^ set(bench_b)):
        side = "A" if name in bench_a else "B"
        print(f"{name:<70} (only in {side})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true",
                        help="time every benchmarks/ file, not just the "
                             "perf-sensitive ones")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a recorded BENCH_*.json and "
                             "exit 1 on regression instead of writing a file")
    parser.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                        help="print per-benchmark B/A ratios between two "
                             "recorded reports (no benchmarks are run)")
    parser.add_argument("--ratio", type=float, default=2.0,
                        help="max allowed slowdown vs baseline (default 2.0)")
    parser.add_argument("--out-dir", default=REPO_ROOT,
                        help="directory for the BENCH_<sha>.json report")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest "
                             "(e.g. -k year_scale)")
    args = parser.parse_args(argv)

    if args.diff:
        return diff(*args.diff)

    targets = ["benchmarks/"] if args.all else list(DEFAULT_TARGETS)
    table = distil(run_benchmarks(targets, args.pytest_args))
    path = write_report(table, args.out_dir)
    print(f"wrote {os.path.relpath(path, REPO_ROOT)} "
          f"({len(table)} benchmarks)")
    if args.check:
        return check(table, args.check, args.ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
