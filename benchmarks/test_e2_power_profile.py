"""E2 — Power profile of one "on" cycle (paper Fig 6).

Claim: the sample/format/transmit cycle "takes about 14 ms" (§4.5) and
Fig 6 shows its power profile: wake, sensor plateau, radio burst, return
to the microwatt sleep floor.

Regenerates: the Fig 6 step profile as an event-exact table + ASCII plot.
Shape checks: duration ~14 ms; milliwatt peak during the radio burst;
microwatt floor; ordering of the phases.
"""

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.core.profiles import capture_cycle_profile, render_ascii


def run_one_cycle():
    node = PicoCube(NodeConfig(fidelity="profile"))
    node.run(13.0)
    return node


def test_e2_power_profile(benchmark):
    node = benchmark.pedantic(run_one_cycle, rounds=3, iterations=1)
    profile = capture_cycle_profile(node)
    print()
    print(render_ascii(profile))

    # Shape: "about 14 ms".
    assert 9e-3 < profile.cycle_duration < 17e-3
    # Shape: the radio burst peaks in the milliwatts (PA ~2.6 mW at the
    # rail reflects to ~4-7 mW at the battery with the COTS LDO).
    assert 2e-3 < profile.peak_power_w < 10e-3
    # Shape: microwatt sleep floor.
    assert profile.sleep_power_w < 10e-6
    # Shape: tens of microjoules per cycle.
    assert 5e-6 < profile.cycle_energy_j < 50e-6

    # Shape: phase ordering — the peak (radio) comes after the sensor
    # plateau begins, and the trace returns to the floor at the end.
    phases = profile.phases()
    peak_time = max(phases, key=lambda p: p[1])[0]
    first_active = next(t for t, p in phases if p > 2 * profile.sleep_power_w)
    assert peak_time > first_active
    assert phases[-1][1] < 2.0 * profile.sleep_power_w
