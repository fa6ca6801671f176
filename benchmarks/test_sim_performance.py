"""Simulator performance benchmarks (not a paper experiment).

The reproduction's usefulness rests on the event-exact simulator being
fast enough for week-scale studies.  These benchmarks put numbers on it:
raw engine throughput, node-simulation speedup over real time, the cost
of the detailed (profile-fidelity) transmit model, trace summation, and
the parallel runner's scaling.
"""

import os
import random
import time

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.runner.pool import Sweep
from repro.sim.engine import Engine
from repro.sim.trace import StepTrace, sum_traces
from repro.studies import node_hours_task


def test_perf_engine_event_throughput(benchmark):
    """Raw engine: schedule + fire a million-ish events."""

    def run():
        engine = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 50_000:
                engine.schedule(1.0, tick)

        engine.schedule(1.0, tick)
        engine.run_to_completion()
        return count

    count = benchmark(run)
    assert count == 50_000


def _timed(timings, fn):
    """Record fn's wall time so assertions survive --benchmark-disable
    (where benchmark.stats is None, e.g. the CI smoke pass)."""

    def run():
        t0 = time.perf_counter()
        result = fn()
        timings["s"] = time.perf_counter() - t0
        return result

    return run


def test_perf_node_hour_fast_fidelity(benchmark):
    """One simulated hour of the TPMS node (600 cycles)."""

    def run():
        node = PicoCube(NodeConfig(fidelity="fast"))
        node.run(3600.0)
        return node

    timings = {}
    node = benchmark(_timed(timings, run))
    assert node.cycles_completed == 599
    # Speedup over real time: a simulated hour must take far under an
    # hour of wall time.
    assert timings["s"] < 5.0  # >700x real time


def test_perf_node_hour_profile_fidelity(benchmark):
    """The detailed per-bit-run transmit model costs a small constant."""

    def run():
        node = PicoCube(NodeConfig(fidelity="profile"))
        node.run(3600.0)
        return node

    timings = {}
    node = benchmark(_timed(timings, run))
    assert node.cycles_completed == 599
    assert timings["s"] < 10.0


def test_perf_simulated_day(benchmark):
    """A full simulated day: 14 400 wake cycles."""

    def run():
        node = PicoCube(NodeConfig(fidelity="fast"))
        node.run(86400.0)
        return node

    timings = {}
    node = benchmark.pedantic(_timed(timings, run), rounds=2, iterations=1)
    assert node.cycles_completed == 14399
    # A day in well under a minute of wall time.
    assert timings["s"] < 60.0


# -- trace summation ----------------------------------------------------------


def _reference_sum_traces(traces):
    """The seed implementation: re-query every trace at every breakpoint
    via bisect.  Kept as the baseline the k-way merge is measured against."""
    start = min(trace.start_time for trace in traces)
    out = StepTrace(name="sum", initial=0.0, start_time=start)
    times = sorted({t for trace in traces for t, _ in trace.breakpoints()})
    for t in times:
        out.set(
            t,
            sum(
                trace.value_at(t) if t >= trace.start_time else 0.0
                for trace in traces
            ),
        )
    return out


def _stacked_profile_traces(trace_count=32, points=10_000):
    """Per-component power traces like a long recorder session produces."""
    rng = random.Random(2008)
    traces = []
    for k in range(trace_count):
        trace = StepTrace(f"component-{k}", initial=0.0, start_time=0.0)
        t = rng.uniform(0.0, 5.0)
        for _ in range(points):
            trace.set(t, rng.choice([0.0, 1e-6, 3e-6, 12e-3]))
            t += rng.uniform(0.001, 0.02)
        traces.append(trace)
    return traces


def test_perf_sum_traces_kway_merge(benchmark):
    """The Fig-6 stacked profile at campaign scale: 32 traces x 10k points.

    Acceptance bar: the k-way merge beats the seed's bisect-requery
    implementation by >= 5x, and stays bit-identical to it.
    """
    traces = _stacked_profile_traces()
    timings = {}

    def merge():
        t0 = time.perf_counter()
        result = sum_traces(traces)
        timings["merge_s"] = time.perf_counter() - t0
        return result

    total = benchmark.pedantic(merge, rounds=1, iterations=1)

    t0 = time.perf_counter()
    reference = _reference_sum_traces(traces)
    reference_s = time.perf_counter() - t0
    merge_s = timings["merge_s"]

    assert total.breakpoints() == reference.breakpoints()
    speedup = reference_s / merge_s
    print(f"\nsum_traces: merge {merge_s:.3f} s vs reference "
          f"{reference_s:.3f} s -> {speedup:.1f}x")
    assert speedup >= 5.0


# -- parallel runner scaling ---------------------------------------------------


def test_perf_runner_parallel_speedup(benchmark):
    """Node-hour campaign through the runner, serial vs pooled.

    The >= 2x acceptance bar only binds on hosts with >= 4 cores; on
    smaller machines the numbers are still printed but pool overhead can
    legitimately eat the gain.
    """
    grid = [(900.0, "fast")] * 8
    timings = {}

    def parallel():
        t0 = time.perf_counter()
        result = Sweep(node_hours_task, name="node-hours", workers=4).run(grid)
        timings["parallel_s"] = time.perf_counter() - t0
        return result

    result = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = timings["parallel_s"]

    t0 = time.perf_counter()
    serial = Sweep(node_hours_task, name="node-hours", workers=1).run(grid)
    serial_s = time.perf_counter() - t0

    # Parallelism must never change results.
    assert result.values() == serial.values()
    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    print(f"\nrunner: serial {serial_s:.2f} s vs 4 workers {parallel_s:.2f} s "
          f"-> {speedup:.2f}x on {cores} cores")
    print(f"[runner] {result.stats.summary()}")
    if cores >= 4:
        assert speedup >= 2.0
