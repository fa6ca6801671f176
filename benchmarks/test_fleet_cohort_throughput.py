"""Cohort fleet-engine throughput.

The cohort engine (``repro.sim.fleet_engine``) batches nodes that share
a (topology, config) template and advances them in lockstep through
``solve_graph_batch``, so a mega-fleet run costs one probe simulation
plus vectorized chain arithmetic instead of ten thousand event loops.
This file times the 10k-node path for the ``tools/bench_baseline.py
--check`` 2x regression gate, and pins the acceptance floor — cohort
node-cycles/sec must beat per-node stepping by >= 5x — with an
always-on assertion that runs even without ``--benchmark-only``.  Two
channel-layer microbenchmarks time ``resolve_channel`` alone: the
collision sweep over a 50k-node fleet's ~200k bursts, and the retry
model behind two noise windows.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import make_power_train
from repro.net.fleet import RetryPolicy, resolve_channel
from repro.sim.fleet_engine import FleetScenario, run_fleet

#: Fleet size named by the acceptance gate.  Thirty seconds gives every
#: node five beacon cycles: long enough that chain throughput dominates
#: the one-off probe/verify cost, short enough for the perf-smoke job.
COHORT_NODES = 10_000
DURATION_S = 30.0

#: Per-node stepping is ~two orders of magnitude slower, so the scalar
#: side of the speedup ratio is sampled on a small fleet and compared on
#: node-cycles/sec rather than wall time for the same node count.
PER_NODE_NODES = 128


def _run(engine, node_count):
    scenario = FleetScenario(
        node_count=node_count, duration_s=DURATION_S, phase_seed=7
    )
    run = run_fleet(scenario, engine=engine)
    assert run.engine_used == engine, run.fallback_reason
    return run


@pytest.mark.benchmark(group="fleet-engine")
def test_perf_cohort_fleet_10k_throughput(benchmark):
    run = benchmark(_run, "cohort", COHORT_NODES)
    assert run.stats.transmitted > 0


def _fleet_records(node_count, duration_s):
    scenario = FleetScenario(
        node_count=node_count, duration_s=duration_s, phase_seed=2008
    )
    return run_fleet(scenario).records


@pytest.mark.benchmark(group="fleet-channel")
def test_perf_resolve_channel_200k(benchmark):
    """The collision sweep alone, on a 50k-node, 30 s fleet's bursts."""
    records = _fleet_records(50_000, 30.0)
    assert len(records) > 190_000
    stats = benchmark(resolve_channel, records)
    assert 0 < stats.collided <= stats.transmitted == len(records)


#: Two noise windows a 20k-node, 60 s fleet retries its way around.
RETRY_NOISE = ((12.0, 14.0), (31.0, 31.5))


@pytest.mark.benchmark(group="fleet-channel")
def test_perf_retry_model(benchmark):
    """Channel resolution with noise losses and the default retry policy."""
    records = _fleet_records(20_000, 60.0)
    stats = benchmark(resolve_channel, records, RETRY_NOISE, RetryPolicy())
    assert stats.lost_to_noise > 0 and stats.retries >= stats.lost_to_noise
    assert stats.recovered > 0


def test_cohort_at_least_5x_faster_than_per_node():
    """Acceptance gate: cohort node-cycles/sec at 10k nodes must be
    >= 5x per-node stepping's rate.  Measured with the best-of-N
    minimum so scheduler noise cannot fail a healthy build.
    """

    def best_of(fn, repeats=3):
        best = float("inf")
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    t_cohort, cohort = best_of(lambda: _run("cohort", COHORT_NODES))
    t_scalar, scalar = best_of(lambda: _run("per-node", PER_NODE_NODES))

    # One packet per completed wake cycle, so transmitted == node-cycles.
    cohort_rate = cohort.stats.transmitted / t_cohort
    scalar_rate = scalar.stats.transmitted / t_scalar
    speedup = cohort_rate / scalar_rate
    assert speedup >= 5.0, (
        f"cohort engine only {speedup:.1f}x per-node stepping "
        f"({cohort_rate:,.0f} vs {scalar_rate:,.0f} node-cycles/s; "
        f"cohort {t_cohort:.2f} s at {COHORT_NODES} nodes, "
        f"per-node {t_scalar:.2f} s at {PER_NODE_NODES} nodes)"
    )


#: The cohort chain's inner solve, as gated by the compiled-kernel
#: acceptance test below: one ``solve_graph_batch`` per advance step, a
#: 1024-point axis, the radio conducting for a TX slot.
INNER_POINTS = 1024
INNER_V = np.linspace(1.15, 1.40, INNER_POINTS)
INNER_TX_LOADS = {"mcu": 250e-6, "sensor": 0.3e-6,
                  "radio-digital": 50e-6, "radio-rf": 4.0e-3}


def test_compiled_inner_solve_at_least_180x_scalar_loop():
    """Acceptance gate: the plan-compiled kernel behind the cohort
    chain's ``solve_graph_batch`` must beat a loop of reference-walk
    solves (``solve_reference`` with the train's gates) by >= 180x at
    1024 points.

    The floor re-anchors the earlier ">= 2x the interpreted batch walk"
    gate, whose reference no longer exists.  Just before the batch walk
    was removed, on this TX profile at 1024 points (2-vCPU Intel Xeon
    host), it ran 96-102x faster than a loop of scalar ``solve_graph``
    calls and the compiled kernel 251-271x, so 2x the batch walk meant
    about 180x the loop.  That loop ran the reference walk then; scalar
    solves are now served by float kernels about 3x faster, so the loop
    timed here is the walk itself, keeping the floor's meaning.  Each
    round times a block of kernel calls and one walk loop back to back,
    so a host speed change between the two sides cannot skew the
    ratio; the median round is gated.
    """
    from repro.power.compile import kernel_metrics

    train = make_power_train("cots")
    train.enable_radio()
    # Warm: first call compiles and bitwise-verifies the kernel.
    train.solve_graph_batch(INNER_V, INNER_TX_LOADS)
    before = kernel_metrics().kernel_solves
    train.solve_graph_batch(INNER_V, INNER_TX_LOADS)
    assert kernel_metrics().kernel_solves > before, (
        "compiled fast path is not serving this profile (fell back to "
        "the scalar loop), so the speedup gate would be vacuous"
    )
    graph = train.graph
    gates = train._open_gates

    def timed(fn, block):
        start = time.perf_counter()
        for _ in range(block):
            fn()
        return (time.perf_counter() - start) / block

    rounds = []
    for _ in range(5):
        t_compiled = timed(
            lambda: train.solve_graph_batch(INNER_V, INNER_TX_LOADS),
            block=20)
        t_scalar = timed(
            lambda: [graph.solve_reference(float(v), INNER_TX_LOADS,
                                           open_gates=gates)
                     for v in INNER_V],
            block=1)
        rounds.append((t_scalar / t_compiled, t_scalar, t_compiled))
    speedup, t_scalar, t_compiled = sorted(rounds)[len(rounds) // 2]
    assert speedup >= 180.0, (
        f"compiled solve_graph_batch only {speedup:.0f}x the walk "
        f"loop at {INNER_POINTS} points (walk {t_scalar * 1e6:.0f} us, "
        f"compiled {t_compiled * 1e6:.1f} us)"
    )
