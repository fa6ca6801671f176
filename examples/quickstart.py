#!/usr/bin/env python3
"""Quickstart: build a PicoCube, run it for an hour, read the meters.

This reproduces the paper's headline measurement (§6): a tire-pressure
node waking every six seconds for a ~14 ms sample/format/transmit cycle,
averaging about 6 uW, dominated by power-management quiescent losses.
"""

from repro.core.builder import build_tpms_node
from repro.core.config import NodeConfig
from repro.core.energy_audit import audit_node, format_lifetime, projected_lifetime_s
from repro.core.node import PicoCube
from repro.core.profiles import capture_cycle_profile, render_ascii


def main() -> None:
    # --- one detailed cycle: the Fig 6 power profile -----------------------
    print("=" * 72)
    print("One 'on' cycle in profile fidelity (paper Fig 6)")
    print("=" * 72)
    profiler = PicoCube(NodeConfig(fidelity="profile"))
    profiler.run(13.0)  # two wake periods: one complete cycle
    print(render_ascii(capture_cycle_profile(profiler)))

    # --- an hour of operation: the average-power measurement ---------------
    print()
    print("=" * 72)
    print("One hour of tire-pressure operation (paper section 6)")
    print("=" * 72)
    node = build_tpms_node()
    node.environment.set_speed_kmh(60.0)
    node.run(3600.0)
    audit = audit_node(node)
    print(audit.format_table())
    print()
    print(f"paper's number      6 uW")
    print(f"packets transmitted {len(node.packets_sent)}")
    print(
        "battery-only lifetime at this draw: "
        f"{format_lifetime(projected_lifetime_s(node))} "
        "(why harvesting matters)"
    )

    # --- what the last packet said ------------------------------------------
    from repro.net.packet import decode_tpms_reading

    last = decode_tpms_reading(node.packets_sent[-1])
    print()
    print("last packet decoded:")
    for key, value in last.items():
        print(f"  {key:<16} {value:8.2f}")


if __name__ == "__main__":
    main()
