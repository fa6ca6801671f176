"""The repo benchmark: one workload per invocation, closed loop, one process.

Usage::

    python3 perfbench/run.py --workload chaos-store --seed 2008 --seconds 30 --trace 0

``--trace 0`` times untraced operations for ``--seconds`` and reports the
end-to-end metrics listed in ``BENCHMARK.json`` (host time, rescaled to
reference host speed by ``hostspeed.py``; simulated quantities are only
checked).  ``--trace 1`` spends half the
time on untraced operations and half on traced ones, and reports the
per-layer metrics: self-time shares, per-call costs and exact counts.
Every operation's outputs are checked; the last stdout line is the JSON
result.  The program is imported from ``src/`` of the checkout this file
sits in, with the disk caches (``REPRO_CACHE_DIR``,
``REPRO_KERNEL_CACHE_DIR``) switched off.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed, slowdown
from tracing import ROOT_SPAN, Tracer, operation_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".perfbench_tmp"
CACHE_ENV = ("REPRO_CACHE_DIR", "REPRO_KERNEL_CACHE_DIR")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60.0
SAMPLE_INTERVAL_S = 0.25


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def say(line: str = "") -> None:
    print(line, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Outcome bookkeeping shared by the untraced and the traced phases."""

    def __init__(self, workload, pinned: str | None) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.speed: HostSpeed | None = None

    def check(self, outcome) -> list[str]:
        return self.workload.verify(outcome, self.pinned)

    def operate(self, operation):
        """Run one operation; returns (seconds, outcome) or None if it failed.

        With ``speed`` set, host speed is sampled during the operation and
        the sampling time is left out of the returned seconds.
        """
        self.attempted += 1
        gc.collect()
        speed = self.speed
        with speed.sampling() if speed else contextlib.nullcontext():
            spent = speed.spent_s if speed else 0.0
            start = time.perf_counter()
            try:
                outcome = operation()
            except Exception:
                self.fail_op(traceback.format_exc(limit=4).strip())
                return None
            elapsed = time.perf_counter() - start
            if speed:
                elapsed -= speed.spent_s - spent
        return elapsed, outcome

    def fail_op(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def attempts(deadline: float, min_ops: int):
    """Closed loop: the next operation starts when the last one is done,
    until the phase's time is up and at least ``min_ops`` were attempted."""
    count = 0
    while count < min_ops or time.perf_counter() < deadline:
        yield count
        count += 1


def untraced_phase(run: Run, seconds: float, min_ops: int, between=None):
    """Time untraced operations; ``between(fraction)`` runs before each one
    with the share of the phase's time already spent."""
    walls, cycles = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    for _ in attempts(deadline, min_ops):
        if between is not None:
            between((time.perf_counter() - start) / seconds)
        done = run.operate(run.workload.run)
        if done is None:
            continue
        # Only ``outcome`` may hold the result from here on: a result still
        # alive when the next operation starts keeps its memory from being
        # reused, which made fleet operations ~40 % slower and noisier.
        elapsed, outcome = done
        del done
        problems = run.check(outcome)
        if problems:
            run.fail_op("; ".join(problems))
        else:
            walls.append(elapsed)
            cycles += run.workload.cycles(outcome)
        run.workload.cleanup(outcome)
        del outcome
    return walls, cycles


def expectation_problems(expect: dict, values: dict) -> list[str]:
    """Evaluate ``{"metric": "== 0" | "> 0" | "== other.metric"}``."""
    problems = []
    for name, rule in expect.items():
        op, _, rhs = rule.partition(" ")
        want = values[rhs] if rhs in values else float(rhs)
        have = values.get(name, 0)
        ok = have == want if op == "==" else have > want
        if not ok:
            problems.append(f"bypass check {name} {rule} failed: {name}={have}")
    return problems


def traced_phase(run: Run, seconds: float, min_ops: int, layers, expect):
    tracer = Tracer(layers)
    walls, times, exact = [], [], []
    deadline = time.perf_counter() + seconds
    for _ in attempts(deadline, min_ops):
        tracer.reset()
        done = run.operate(lambda: tracer.run(run.workload.run))
        if done is None:
            continue
        elapsed, outcome = done
        del done
        problems = run.check(outcome)
        op_times, counts, ratios = operation_metrics(tracer)
        error = tracer.accounting_error_ns()
        if error or tracer.orphans:
            problems.append(
                f"layer self times miss the root span by {error} ns "
                f"({tracer.orphans} spans outside it)"
            )
        problems += expectation_problems(expect, counts)
        if problems:
            run.fail_op("; ".join(problems))
        else:
            walls.append(elapsed)
            times.append((op_times, tracer.self_ns.copy(), tracer.root_ns))
            exact.append({**counts, **ratios})
        run.workload.cleanup(outcome)
        tracer.reset()
        del outcome
    return walls, times, exact


class SetupProbes:
    """Set-up timings of fresh interpreters, spread over the timed phase.

    The host's speed changes level every few seconds, so probes taken one
    after another at the start all land on one level; spread over the
    phase, they see the same mix of levels as the operations.
    """

    def __init__(self, workload: str, seed: int, scratch: str) -> None:
        self.env = {k: v for k, v in os.environ.items() if k not in CACHE_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.command = [sys.executable, str(HERE / "setup_child.py"),
                        workload, "--seed", str(seed), "--scratch", scratch]
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.slowdowns: list[float] = []

    def due(self, fraction: float) -> None:
        """Probe until ``SETUP_PROBES`` probes are spread up to ``fraction``."""
        while len(self.samples) < min(SETUP_PROBES,
                                      1 + int(fraction * SETUP_PROBES)):
            self.samples.append(self.probe())

    def probe(self) -> float:
        """One probe's set-up seconds at reference host speed.

        The child samples host speed itself, on its own CPU, and reports
        the samples and the time they took with its ``ready`` line.
        """
        start = time.perf_counter()
        child = subprocess.Popen(self.command, stdout=subprocess.PIPE,
                                 env=self.env, cwd=str(ROOT), text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        word, _, report = line.partition(" ")
        if word != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        samples, spent = json.loads(report)
        self.raw.append(elapsed - spent)
        self.slowdowns.append(slowdown(samples))
        return self.raw[-1] / self.slowdowns[-1]


def describe(name: str, values, unit: str) -> str:
    if not values:
        return f"  {name:<20} no samples"
    return (f"  {name:<20} {median(values):12.6g} {unit:<6} median of "
            f"{len(values)} (min {min(values):.6g}, max {max(values):.6g})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail("BENCHMARK.json not found next to the benchmark directory")
    bench = json.loads(bench_path.read_text())
    meta = json.loads((HERE / "meta.json").read_text())
    if args.workload not in meta["workloads"]:
        fail(f"unknown workload {args.workload!r}; pick one of "
             f"{sorted(meta['workloads'])}")
    spec = meta["workloads"][args.workload]
    seed = meta["default_seed"] if args.seed is None else args.seed

    for name in CACHE_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro.power.compile import kernel_metrics
    from workloads import WORKLOADS

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=str(SCRATCH_ROOT))
    try:
        workload = WORKLOADS[args.workload](spec["params"], seed, scratch)
        pinned = spec["fingerprint"] if seed == meta["default_seed"] else None
        run = Run(workload, pinned)
        say(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} "
            f"trace={args.trace}")
        metrics = {}
        if args.trace == 0:
            probes = SetupProbes(args.workload, seed, scratch)
            workload.warm()
            run.speed = HostSpeed(SAMPLE_INTERVAL_S)
            walls, cycles = untraced_phase(run, args.seconds, min_ops=2,
                                           between=probes.due)
            probes.due(1.0)
            setups = probes.samples
            # Host times are rescaled to reference host speed (see
            # hostspeed.py).  Means, not medians: the host's speed flips
            # between levels, and a median over operations snaps to
            # whichever level held most of them.
            busy = sum(walls)
            slow = run.speed.slowdown()
            metrics = {
                "wall_s": busy / len(walls) / slow if walls else 0.0,
                "node_cycles_per_s": cycles / busy * slow if walls else 0.0,
                "setup_s": median(setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            say("  op_s " + " ".join(f"{wall:.4f}" for wall in walls))
            say(f"  host slowdown x{slow:.4f} from {len(run.speed.samples)} "
                f"samples; set-up probes x"
                + " x".join(f"{s:.3f}" for s in probes.slowdowns))
            say(f"  {'wall_s':<20} {metrics['wall_s']:12.6g} s      mean of "
                f"{len(walls)} operations at reference speed (host time: "
                f"mean {busy / max(len(walls), 1):.6g}, "
                f"median {median(walls):.6g})")
            say(f"  {'node_cycles_per_s':<20} {metrics['node_cycles_per_s']:12.6g} "
                f"1/s    {cycles} cycles in {busy:.4f} host s of operations")
            say(describe("setup_s", setups, "s")
                + f"; host time median {median(probes.raw):.6g}")
            say(f"  {'peak_rss_mb':<20} {metrics['peak_rss_mb']:12.6g} MB")
        else:
            workload.warm()
            plain, _ = untraced_phase(run, args.seconds / 2.0, min_ops=1)
            walls, times, exact = traced_phase(
                run, args.seconds / 2.0, 2, meta["layers"], spec["expect"]
            )
            metrics = layer_metrics(run, meta["layers"], plain, walls,
                                    times, exact, kernel_metrics())
        say(f"  {'failed_frac':<20} {run.failed}/{run.attempted} "
            f"= {run.failed / max(run.attempted, 1):.6g}")
        for problem in run.problems:
            say(f"  FAILED: {problem}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    result = {
        "correct": run.failed == 0 and not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result))


def layer_metrics(run: Run, layers, plain, walls, times, exact, kernels) -> dict:
    """Per-layer metrics of the traced phase, with the determinism check."""
    metrics = {}
    if exact:
        differing = sorted(
            name for name in set().union(*exact)
            if len({values.get(name) for values in exact}) > 1
        )
        if differing:
            run.problems.append(
                f"counts differ across traced runs: {differing}"
            )
        metrics.update(exact[0])
    metrics["kernel.compiles"] = kernels.compiles
    metrics["kernel.fallbacks"] = kernels.fallbacks
    for name in (times[0][0] if times else {}):
        metrics[name] = median([op_times[name] for op_times, _, _ in times])
    metrics["traced_wall_s"] = median(walls)
    metrics["trace.overhead"] = median(walls) / median(plain) if plain else 0.0

    def self_s(span: str) -> float:
        return median([ns.get(span, 0) / 1e9 for _, ns, _ in times])

    def share(span: str) -> float:
        return median([100.0 * ns.get(span, 0) / root for _, ns, root in times])

    say(f"  {'layer (span)':<40} {'self_s':>9} {'self%':>7}  metrics")
    for layer in layers + [{"layer": "root", "span": ROOT_SPAN,
                            "metrics": ["op.self_pct"]}]:
        span = layer["span"]
        values = " ".join(
            f"{name}={metrics[name]:.6g}" for name in layer["metrics"]
        )
        say(f"  {layer['layer'] + ' (' + span + ')':<40} {self_s(span):9.4f} "
            f"{share(span):6.2f}%  {values}")
    say(f"  traced op {median(walls):.4f} s (median of {len(walls)}); the "
        f"self times of each traced op sum to it exactly; tracing overhead "
        f"x{metrics['trace.overhead']:.3f} against {len(plain)} untraced ops")
    return metrics


if __name__ == "__main__":
    main()
