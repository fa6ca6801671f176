#!/usr/bin/env python3
"""A bad afternoon in the field: faults, brownout, and recovery.

The paper's pitch is perpetual operation from scavenged energy — but the
field is hostile: the car parks (no vibration), the cell leaks, the
channel fades.  This example scripts exactly such an afternoon against a
deliberately marginal node, watches it brown out, and watches the POR
supervisor bring it back once the harvester returns.  It then runs a
seeded chaos Monte Carlo to show how often a "harsh" storm takes the
node down — bit-identical for any worker count.
"""

from repro.campaigns import chaos_campaign
from repro.core.config import NodeConfig
from repro.core.energy_audit import audit_node
from repro.core.node import PicoCube
from repro.faults.events import (
    ChannelNoiseBurst,
    EsrDrift,
    HarvesterDropout,
    SpuriousReset,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.storage.nimh import NiMHCell

HOUR = 3600.0


def marginal_node() -> PicoCube:
    """A 0.1 mAh cell at 12% charge with a C/10 (10 uA) charger."""
    cell = NiMHCell(capacity_mah=0.1)
    cell.set_soc(0.12)
    config = NodeConfig(
        brownout_recovery=True,
        recovery_voltage_v=1.19,
        recovery_check_period_s=30.0,
    )
    node = PicoCube(config, battery=cell)
    node.attach_charger(lambda t: 10e-6, update_period_s=60.0)
    return node


def main() -> None:
    print("=" * 72)
    print("Scripted storm: dropout -> brownout -> recovery")
    print("=" * 72)
    node = marginal_node()
    schedule = FaultSchedule([
        # 10 minutes in, the car parks: harvest gone for 80 minutes.
        HarvesterDropout(start_s=600.0, duration_s=4800.0),
        # The cold cell sags harder right when margins are thinnest.
        EsrDrift(start_s=600.0, duration_s=4800.0, multiplier=2.0),
        # A jammer wanders through the band late in the afternoon.
        ChannelNoiseBurst(start_s=8000.0, duration_s=900.0,
                          flip_probability=0.02),
        # And an ESD zap resets the MCU mid-cycle for good measure.
        SpuriousReset(start_s=9200.0),
    ])
    injector = FaultInjector(node, schedule, noise_seed=2008)
    injector.arm()
    node.run(3 * HOUR)

    print("fault timeline:")
    for when, what in injector.log:
        print(f"  {when:8.1f} s  {what}")
    for event in node.brownout_events:
        end = f"{event.end_s:.1f} s" if event.end_s is not None else "never"
        print(f"brownout at {event.start_s:.1f} s, recovered {end}")
    print(f"packets delivered {len(node.packets_sent)}, "
          f"corrupted by noise {len(node.packets_corrupted)}, "
          f"spurious resets {node.resets}")
    print()
    print(audit_node(node).format_table())

    print()
    print("=" * 72)
    print("Chaos Monte Carlo: 4 seeded 'harsh' storms (2 h each)")
    print("=" * 72)
    outcomes, stats = chaos_campaign(
        trials=4, duration_s=2 * HOUR, profile="harsh", workers=2
    )
    for k, out in enumerate(outcomes):
        verdict = "survived" if out.survived else (
            f"{out.brownouts} brownout(s), {out.outage_s:.0f} s dark"
        )
        print(f"  trial {k}: {out.cycles} cycles, "
              f"{out.packets_corrupted} corrupted, {verdict}")
    print(stats.summary())


if __name__ == "__main__":
    main()
