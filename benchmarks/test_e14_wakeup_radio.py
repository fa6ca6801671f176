"""E14 — The wake-up radio extension (paper §7.3, ref [16]).

Claim: "This radio contains an extremely low-power receiver that listens
full-time for a wake-up signal, then starts a more complex (and more
power hungry) receiver for data transfer" — the path to a *reachable*
node without paying the main receiver's 400 uW around the clock.

Regenerates: the power/latency frontier of three reachability strategies
(always-on RX, duty-cycled RX, wake-up radio) across duty-cycle periods.
Shape checks: wake-up radio is ~10x cheaper than always-on at ~1000x
better latency than any comparable-power duty cycle.
"""

from conftest import print_table

from repro.radio.receiver import SuperregenerativeReceiver
from repro.radio.wakeup import WakeupRadio, compare_reachability


def sweep():
    main_rx = SuperregenerativeReceiver()
    wakeup = WakeupRadio()
    base = compare_reachability(main_rx, wakeup)
    # Duty-cycled frontier: period sweep at a fixed 5 ms listen window.
    frontier = []
    for period in (0.1, 0.3, 1.0, 3.0, 10.0):
        options = compare_reachability(
            main_rx, wakeup, duty_cycle_period=period, listen_window=5e-3
        )
        duty = next(o for o in options if o.strategy == "duty-cycled-rx")
        frontier.append((period, duty))
    return base, frontier


def test_e14_wakeup_radio(benchmark):
    base, frontier = benchmark(sweep)
    options = {o.strategy: o for o in base}

    print_table(
        "E14a: reachability strategies (4 sessions/h, 50 ms each)",
        ["strategy", "average power", "worst-case latency"],
        [
            (o.strategy, f"{o.average_power * 1e6:.1f} uW",
             f"{o.worst_case_latency * 1e3:.1f} ms")
            for o in base
        ],
    )
    print_table(
        "E14b: duty-cycled frontier (5 ms listen window)",
        ["period", "average power", "latency"],
        [
            (f"{period:.1f} s", f"{o.average_power * 1e6:.2f} uW",
             f"{o.worst_case_latency * 1e3:.0f} ms")
            for period, o in frontier
        ],
    )

    always = options["always-on-rx"]
    wake = options["wakeup-radio"]
    # Shape: wake-up radio is an order of magnitude under always-on.
    assert wake.average_power < 0.15 * always.average_power
    # Shape: and its latency is milliseconds, like always-on.
    assert wake.worst_case_latency <= 2e-3
    # Shape: to match the wake-up radio's power, a duty-cycled receiver
    # must accept ~100x worse latency.
    cheap_enough = [
        o for _, o in frontier if o.average_power <= wake.average_power
    ]
    assert cheap_enough
    assert min(o.worst_case_latency for o in cheap_enough) > 50.0 * (
        wake.worst_case_latency
    )
    # Shape: duty-cycled power falls monotonically with period.
    powers = [o.average_power for _, o in frontier]
    assert powers == sorted(powers, reverse=True)
