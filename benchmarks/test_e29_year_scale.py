"""E29 — a simulated year of the TPMS node via cycle fast-forward.

Not a table from the paper but its headline claim at full scale: the
node's ~6 uW-scale average draw is what makes *years* of harvested
operation plausible, and checking that claim by simulation needs a year
of simulated time to be affordable.  The cycle fast-forward accelerator
(``docs/PERF.md``) makes it so: the steady-cruise scenario leaps through
its repeating macro-cycles and the year runs in seconds.

Two legs:

* **equivalence** — two simulated days with and without fast-forward
  must agree *bit-for-bit*: the full :class:`EnergyAudit`, every packet,
  every cycle start, and the recorder's breakpoint streams.  This is the
  exactness contract enforced end-to-end.
* **year scale** — one simulated year, fast-forwarded, asserting the
  6 uW-scale average power and a >= 10x wall-clock speedup over the
  event-by-event rate (measured on a calibration window and
  extrapolated — a full un-accelerated year would take ~half an hour,
  which is exactly the point).  Set ``E29_FULL_YEAR_PLAIN=1`` to run the
  un-accelerated year for real and compare audits directly.
"""

import os
import time

from repro.core.builder import build_steady_tpms_node
from repro.core.energy_audit import audit_node

DAY_S = 86400.0
YEAR_S = 365.0 * DAY_S


def _run(duration_s, fast_forward):
    node = build_steady_tpms_node(fast_forward=fast_forward)
    t0 = time.perf_counter()
    node.run(duration_s)
    return node, time.perf_counter() - t0


def test_e29_two_days_bit_identical(benchmark):
    """Fast-forwarded vs event-by-event: bit-identical observables."""
    plain, _ = _run(2.0 * DAY_S, fast_forward=False)

    def fast_leg():
        return _run(2.0 * DAY_S, fast_forward=True)[0]

    fast = benchmark.pedantic(fast_leg, rounds=1, iterations=1)

    accelerator = fast.fast_forward
    assert accelerator is not None and accelerator.leaps, \
        "the steady scenario must actually leap"
    assert audit_node(fast) == audit_node(plain)
    assert fast.packets_sent == plain.packets_sent
    assert fast.cycle_start_times == plain.cycle_start_times
    assert fast.cycles_completed == plain.cycles_completed
    for name in plain.recorder.channel_names():
        fast_trace = fast.recorder.channel(name)
        plain_trace = plain.recorder.channel(name)
        assert fast_trace.compressed, f"{name}: no compressed blocks?"
        assert list(fast_trace.breakpoints()) == list(
            plain_trace.breakpoints()
        ), f"channel {name} diverged"
    print(f"\nE29 equivalence: {fast.cycles_completed} cycles, "
          f"{len(accelerator.leaps)} leaps, "
          f"{accelerator.cycles_replayed} cycles replayed, "
          f"audits bit-identical")


def test_e29_year_scale(benchmark):
    """One simulated year at 6 uW scale, >= 10x faster than stepping."""
    # Calibrate the event-by-event rate on a window long enough to
    # amortize startup (the full plain year is ~100x the fast one).
    calibration_s = 6.0 * 3600.0
    plain, plain_wall = _run(calibration_s, fast_forward=False)
    plain_rate = calibration_s / plain_wall

    def year_leg():
        return _run(YEAR_S, fast_forward=True)

    fast, fast_wall = benchmark.pedantic(year_leg, rounds=1, iterations=1)
    audit = audit_node(fast)
    accelerator = fast.fast_forward

    speedup = (YEAR_S / plain_rate) / fast_wall
    replayed_fraction = accelerator.cycles_replayed / fast.cycles_completed
    print(f"\nE29 year: {fast_wall:.1f} s wall for {YEAR_S:.0f} s simulated "
          f"({len(accelerator.leaps)} leaps, "
          f"{replayed_fraction:.1%} of cycles replayed)")
    print(f"E29 average power {audit.average_power_w * 1e6:.3f} uW; "
          f"speedup vs stepping ~{speedup:.0f}x "
          f"(plain rate {plain_rate:.0f} sim-s/s)")

    assert audit.duration_s == YEAR_S
    # The paper's uW-scale claim: single-digit microwatts, a year deep.
    assert 4e-6 < audit.average_power_w < 12e-6
    assert audit.brownouts == 0
    assert replayed_fraction > 0.9
    assert speedup >= 10.0
    # The calibration window's average must agree with the year's at the
    # uW scale (same steady cycle, different horizons).
    assert abs(plain.average_power() - audit.average_power_w) < 0.5e-6

    if os.environ.get("E29_FULL_YEAR_PLAIN") == "1":  # ~30 min: opt-in
        plain_year, plain_year_wall = _run(YEAR_S, fast_forward=False)
        assert audit_node(plain_year) == audit
        print(f"E29 full plain year: {plain_year_wall:.0f} s wall, "
              f"audit bit-identical")
