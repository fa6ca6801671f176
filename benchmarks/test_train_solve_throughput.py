"""Power-train solve throughput.

The quasi-static ``PowerTrain.solve`` runs at *every* load-changing
event — twice, because ``PicoCube._update`` re-solves at the sagged
terminal voltage — so its per-call cost multiplies into every campaign.
This benchmark times a mixed workload over the paper's operating
envelope (sleep, active, TX; radio gated on and off; both paper trains)
and feeds the ``tools/bench_baseline.py --check`` 2x regression gate.
The committed baseline was recorded against the legacy hand-written
solvers, so the gate enforces the RailGraph refactor's "within 2x of
legacy" budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.power_train import LoadState, make_power_train
from repro.power.graph import RailGraph
from repro.power.rail_topologies import get_rail_spec

SLEEP = LoadState(i_mcu=0.7e-6, i_sensor=0.3e-6)
ACTIVE = LoadState(i_mcu=250e-6, i_sensor=450e-6)
TX = LoadState(i_mcu=250e-6, i_sensor=0.3e-6,
               i_radio_digital=50e-6, i_radio_rf=4.0e-3)

#: One wake cycle's worth of solves: mostly sleep, a few active phases,
#: one gated TX burst.  Voltages straddle the NiMH discharge plateau.
V_SWEEP = (1.32, 1.28, 1.25, 1.22, 1.18)


def _solve_mixed_workload(kinds):
    trains = [make_power_train(kind) for kind in kinds]
    total = 0.0
    for train in trains:
        for v_battery in V_SWEEP:
            for _ in range(40):
                total += train.solve(v_battery, SLEEP).p_battery
            for _ in range(8):
                total += train.solve(v_battery, ACTIVE).p_battery
            train.enable_radio()
            for _ in range(2):
                total += train.solve(v_battery, TX).p_battery
            train.disable_radio()
    return total


@pytest.mark.benchmark(group="power-train")
def test_perf_train_solve_throughput(benchmark):
    total = benchmark(_solve_mixed_workload, ("cots", "ic"))
    assert total > 0.0


#: Operating-point count for the batched sweep benchmarks — large enough
#: that the batch path's fixed per-component cost amortizes, and the
#: size named by the "solve_batch is >= 5x a scalar loop" acceptance
#: gate below.
BATCH_POINTS = 1024

BATCH_V = np.linspace(1.15, 1.40, BATCH_POINTS)
BATCH_LOADS = {"mcu": 0.7e-6, "sensor": 0.3e-6}


def _solve_batched_sweep(kinds):
    total = 0.0
    for kind in kinds:
        graph = RailGraph(get_rail_spec(kind))
        batch = graph.solve_batch(BATCH_V, BATCH_LOADS)
        total += float(batch.p_source.sum())
    return total


@pytest.mark.benchmark(group="power-train")
def test_perf_train_solve_batch_throughput(benchmark):
    total = benchmark(_solve_batched_sweep, ("cots", "ic"))
    assert total > 0.0


def test_solve_batch_at_least_5x_faster_than_scalar_loop():
    """Acceptance gate: one ``solve_batch`` over 1024 operating points
    must beat 1024 scalar ``solve`` calls by >= 5x.  Measured with the
    best-of-N minimum so scheduler noise cannot fail a healthy build.
    """
    graph = RailGraph(get_rail_spec("cots"))
    graph.solve_batch(BATCH_V, BATCH_LOADS)  # warm any lazy state

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    t_batch = best_of(lambda: graph.solve_batch(BATCH_V, BATCH_LOADS))
    t_scalar = best_of(
        lambda: [graph.solve(float(v), BATCH_LOADS) for v in BATCH_V]
    )
    speedup = t_scalar / t_batch
    assert speedup >= 5.0, (
        f"solve_batch only {speedup:.1f}x faster than the scalar loop "
        f"at {BATCH_POINTS} points (scalar {t_scalar * 1e3:.2f} ms, "
        f"batch {t_batch * 1e3:.2f} ms)"
    )


#: The TX operating point from the mixed workload above, as batch
#: channel loads: the gate profile for the compiled-kernel acceptance
#: test (radio conducting exercises the shunt + switched-LDO branches).
TX_BATCH_LOADS = {"mcu": 250e-6, "sensor": 0.3e-6,
                  "radio-digital": 50e-6, "radio-rf": 4.0e-3}


def test_compiled_solve_batch_at_least_180x_scalar_loop():
    """Acceptance gate: the plan-compiled fused kernel must beat a loop
    of reference-walk solves (``solve_reference``) by >= 180x at 1024
    operating points.

    The floor re-anchors the earlier ">= 2x the interpreted batch walk"
    gate, whose reference no longer exists.  Just before the batch walk
    was removed, on this TX profile at 1024 points (2-vCPU Intel Xeon
    host), it ran 83-102x faster than a loop of scalar solves and the
    compiled kernel 233-271x, so 2x the batch walk meant about 180x the
    loop.  That loop was the reference walk then; scalar ``solve`` is
    now served by float kernels about 3x faster, so the loop timed here
    is the walk itself, keeping the floor's meaning.  Each round times a
    block of kernel calls and one walk loop back to back, so a host
    speed change between the two sides cannot skew the ratio; the
    median round is gated.
    """
    from repro.power.compile import kernel_metrics

    graph = RailGraph(get_rail_spec("cots"))
    gates = frozenset({"radio"})
    # Warm: first call compiles and bitwise-verifies the kernel.
    graph.solve_batch(BATCH_V, TX_BATCH_LOADS, open_gates=gates)
    before = kernel_metrics().kernel_solves
    graph.solve_batch(BATCH_V, TX_BATCH_LOADS, open_gates=gates)
    assert kernel_metrics().kernel_solves > before, (
        "compiled fast path is not serving this profile (fell back to "
        "the scalar loop), so the speedup gate would be vacuous"
    )

    def timed(fn, block):
        start = time.perf_counter()
        for _ in range(block):
            fn()
        return (time.perf_counter() - start) / block

    rounds = []
    for _ in range(5):
        t_compiled = timed(
            lambda: graph.solve_batch(BATCH_V, TX_BATCH_LOADS,
                                      open_gates=gates), block=20)
        t_scalar = timed(
            lambda: [graph.solve_reference(float(v), TX_BATCH_LOADS,
                                           open_gates=gates)
                     for v in BATCH_V], block=1)
        rounds.append((t_scalar / t_compiled, t_scalar, t_compiled))
    speedup, t_scalar, t_compiled = sorted(rounds)[len(rounds) // 2]
    assert speedup >= 180.0, (
        f"compiled solve_batch only {speedup:.0f}x the walk loop at "
        f"{BATCH_POINTS} points (walk {t_scalar * 1e6:.0f} us, "
        f"compiled {t_compiled * 1e6:.1f} us)"
    )


def test_scalar_train_solve_at_least_2_5x_reference_walk():
    """Acceptance gate: the node's hot path, ``train.solve`` on the cots
    TX point, must run >= 2.5x faster than the reference walk it is
    verified against (``solve_reference`` with the train's gates).

    The float kernel plus the lean train wrapper measured 2.5-2.8 us per
    call against 9.2-10.3 us for the walk alone (2-vCPU Intel Xeon
    host).  Rounds interleave a block of each side; the median round is
    gated.
    """
    from repro.power.compile import kernel_metrics

    train = make_power_train("cots")
    train.enable_radio()
    v_battery = 1.25
    walk_loads = {"mcu": TX.i_mcu, "sensor": TX.i_sensor,
                  "radio-digital": TX.i_radio_digital,
                  "radio-rf": TX.i_radio_rf}
    mismatches = kernel_metrics().scalar_mismatches
    train.solve(v_battery, TX)  # first call: compile, verify, promote
    entry = train.graph._kernels.floats[train._open_gates]
    assert entry.verified and not entry.failed, (
        "the float kernel was not promoted, so the gate would be vacuous"
    )
    graph = train.graph
    gates = train._open_gates

    def timed(fn, block=2000):
        start = time.perf_counter()
        for _ in range(block):
            fn()
        return (time.perf_counter() - start) / block

    rounds = []
    for _ in range(5):
        t_train = timed(lambda: train.solve(v_battery, TX))
        t_walk = timed(lambda: graph.solve_reference(v_battery, walk_loads,
                                                     open_gates=gates))
        rounds.append((t_walk / t_train, t_walk, t_train))
    speedup, t_walk, t_train = sorted(rounds)[len(rounds) // 2]
    assert not entry.failed
    assert kernel_metrics().scalar_mismatches == mismatches
    assert speedup >= 2.5, (
        f"train.solve only {speedup:.2f}x the reference walk "
        f"(train {t_train * 1e6:.2f} us, walk {t_walk * 1e6:.2f} us)"
    )
