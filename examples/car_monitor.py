#!/usr/bin/env python3
"""A four-wheel TPMS installation with a dashboard base station.

The complete application the paper's flagship use case implies: one
PicoCube per wheel beaconing every six seconds, a dashboard ECU tracking
all four, a slow leak developing in the right-rear tire, and one node
whose harvester fails.  The ECU must call both.
"""

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.net.basestation import BaseStation
from repro.sim.engine import Engine
from repro.units import HOUR

WHEELS = {1: "front-left", 2: "front-right", 3: "rear-left", 4: "rear-right"}


def main() -> None:
    engine = Engine()
    nodes = {}
    for node_id in WHEELS:
        node = PicoCube(NodeConfig(node_id=node_id), engine=engine)
        node.environment.set_speed_kmh(80.0)
        node.start()
        # Stagger wake phases as independent power-ups would.
        node._wake_timer.stop()
        node._wake_timer.start(first_delay=6.0 + 1.3 * node_id)
        nodes[node_id] = node
    station = BaseStation(low_pressure_psi=26.0, leak_rate_psi_per_min=0.05)

    print("=" * 72)
    print("Four-wheel TPMS: 80 km/h cruise, dashboard ECU listening")
    print("=" * 72)

    def feed_station() -> None:
        for node_id, node in nodes.items():
            for packet, t in zip(node.packets_sent, node.cycle_start_times):
                if t > fed_until[node_id]:
                    station.ingest(packet, t)
                    fed_until[node_id] = t

    fed_until = {node_id: -1.0 for node_id in WHEELS}

    # Hour 1: all healthy.
    engine.run_until(1 * HOUR)
    feed_station()
    print(f"\nafter 1 h: pressures "
          f"{[round(station.pressure_of(n), 1) for n in sorted(WHEELS)]} psi; "
          f"fleet healthy: {station.fleet_healthy(engine.now)}")

    # Hour 2: the rear-right picks up a nail (slow leak), and the
    # front-left node's harvester quits (we emulate by stopping its timer).
    nodes[4].environment.leak(8.0)
    nodes[1]._wake_timer.stop()
    engine.run_until(2 * HOUR)
    feed_station()

    print(f"\nafter 2 h:")
    for node_id, name in WHEELS.items():
        print(f"  {name:<12} last pressure "
              f"{station.pressure_of(node_id):5.1f} psi, "
              f"{station.tracks[node_id].missed_packets} packets missed")

    silent = station.check_silent(engine.now)
    print("\nECU alarms raised:")
    summary = {}
    for alarm in station.alarms:
        key = (WHEELS[alarm.node_id], alarm.kind)
        summary[key] = summary.get(key, 0) + 1
    for (wheel, kind), count in sorted(summary.items()):
        print(f"  {wheel:<12} {kind:<14} x{count}")

    print("\nverdict:")
    leak_called = any(
        a.node_id == 4 and a.kind == "low-pressure" for a in station.alarms
    )
    silence_called = any(
        a.node_id == 1 and a.kind == "node-silent" for a in station.alarms
    )
    print(f"  rear-right leak detected:   {'YES' if leak_called else 'NO'}")
    print(f"  front-left silence flagged: {'YES' if silence_called else 'NO'}")
    healthy_quiet = not any(
        a.node_id in (2, 3) and a.kind != "sequence-gap"
        for a in station.alarms
    )
    print(f"  healthy wheels stayed quiet: {'YES' if healthy_quiet else 'NO'}")


if __name__ == "__main__":
    main()
