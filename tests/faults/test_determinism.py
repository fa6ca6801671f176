"""Bit-identical replay with and without an armed fault schedule.

The injector's whole design — engine-scheduled transitions, one seeded
RNG for noise, schedules that are pure functions of their seed — exists
so that a faulted run replays exactly.  These tests pin that contract.
"""

from repro.campaigns import chaos_task
from repro.core.config import NodeConfig
from repro.core.energy_audit import audit_node
from repro.core.node import PicoCube
from repro.faults.injector import FaultInjector
from repro.faults.schedule import random_schedule
from repro.storage.nimh import NiMHCell


def faulted_node(with_schedule=True):
    cell = NiMHCell(capacity_mah=0.5)
    cell.set_soc(0.4)
    node = PicoCube(
        NodeConfig(brownout_recovery=True, recovery_voltage_v=1.19),
        battery=cell,
    )
    node.attach_charger(lambda t: 15e-6, update_period_s=60.0)
    if with_schedule:
        schedule = random_schedule(99, 1800.0, noise_bursts=2,
                                   noise_flip_probability=(0.05, 0.2))
        FaultInjector(node, schedule, noise_seed=99).arm()
    node.run(1800.0)
    return node


def assert_bit_identical(a, b):
    assert a.battery.charge == b.battery.charge
    assert a.packets_sent == b.packets_sent
    assert a.packets_corrupted == b.packets_corrupted
    assert a.cycles_completed == b.cycles_completed
    assert a.resets == b.resets
    assert [(e.start_s, e.end_s) for e in a.brownout_events] == [
        (e.start_s, e.end_s) for e in b.brownout_events
    ]
    for channel in a.recorder.channel_names():
        assert (
            a.recorder.channel(channel).breakpoints()
            == b.recorder.channel(channel).breakpoints()
        ), channel
    assert audit_node(a) == audit_node(b)


def test_clean_runs_bit_identical():
    assert_bit_identical(
        faulted_node(with_schedule=False), faulted_node(with_schedule=False)
    )


def test_faulted_runs_bit_identical():
    a, b = faulted_node(), faulted_node()
    assert_bit_identical(a, b)


def test_fault_schedule_changes_the_run():
    clean = faulted_node(with_schedule=False)
    faulted = faulted_node()
    assert clean.battery.charge != faulted.battery.charge


def test_chaos_task_is_pure():
    params = (1800.0, "harsh")
    assert chaos_task(params, seed=5) == chaos_task(params, seed=5)
    assert chaos_task(params, seed=5) != chaos_task(params, seed=6)
