"""The cycle fast-forward exactness contract, end to end.

The accelerator may only change *wall-clock time*: every observable of a
fast-forwarded run — the full energy audit, every packet, every cycle
start, every recorder breakpoint, the battery, the event count — must be
bit-identical to the event-by-event run.  These tests pin that contract
on the steady-cruise scenario (where leaps actually happen), under
randomized duty cycles (Hypothesis), and in the presence of faults and
brownouts (where the accelerator must stand down automatically).
"""

from hypothesis import given, settings, strategies as st

from repro.core.builder import (
    build_motion_node,
    build_steady_tpms_node,
    build_tpms_deployment,
)
from repro.core.config import NodeConfig
from repro.core.energy_audit import audit_node
from repro.core.fastforward import CycleFastForward
from repro.core.node import PicoCube
from repro.faults.injector import FaultInjector
from repro.faults.schedule import random_schedule
from repro.storage.nimh import NiMHCell


def steady_pair(horizon_s, **kwargs):
    """The same steady-cruise scenario, accelerated and plain."""
    fast = build_steady_tpms_node(fast_forward=True, **kwargs)
    plain = build_steady_tpms_node(fast_forward=False, **kwargs)
    fast.run(horizon_s)
    plain.run(horizon_s)
    return fast, plain


def assert_bit_identical(fast, plain):
    assert audit_node(fast) == audit_node(plain)
    assert fast.packets_sent == plain.packets_sent
    assert fast.cycle_start_times == plain.cycle_start_times
    assert fast.cycles_completed == plain.cycles_completed
    assert fast.battery.charge == plain.battery.charge
    assert fast.engine.now == plain.engine.now
    assert fast.engine.events_fired == plain.engine.events_fired
    for name in plain.recorder.channel_names():
        assert list(fast.recorder.channel(name).breakpoints()) == list(
            plain.recorder.channel(name).breakpoints()
        ), f"channel {name} diverged"


# -- the contract on the showcase scenario ------------------------------------


def test_steady_run_leaps_and_stays_bit_identical():
    fast, plain = steady_pair(
        10 * 256 * 2.0, wake_period_s=2.0, harvest_update_s=2.0
    )
    accelerator = fast.fast_forward
    assert accelerator is not None and len(accelerator.leaps) >= 1
    assert accelerator.cycles_replayed > 0
    assert_bit_identical(fast, plain)


def test_leap_statistics_are_consistent():
    fast, _ = steady_pair(
        10 * 256 * 2.0, wake_period_s=2.0, harvest_update_s=2.0
    )
    accelerator = fast.fast_forward
    assert accelerator.time_skipped == sum(
        leap.skipped_s for leap in accelerator.leaps
    )
    assert accelerator.cycles_replayed == sum(
        leap.cycles_replayed for leap in accelerator.leaps
    )
    assert accelerator.verifications_failed == 0


def test_split_runs_reset_horizon_and_stay_identical():
    """run(T) + run(T) through leaps equals one plain run(2T): the horizon
    is re-declared per run and leaps never overshoot it."""
    span = 256 * 2.0
    fast = build_steady_tpms_node(
        fast_forward=True, wake_period_s=2.0, harvest_update_s=2.0
    )
    plain = build_steady_tpms_node(
        fast_forward=False, wake_period_s=2.0, harvest_update_s=2.0
    )
    fast.run(7 * span)
    fast.run(7 * span)
    plain.run(14 * span)
    assert fast.fast_forward.leaps  # both segments leap
    assert_bit_identical(fast, plain)


def test_fast_forward_off_by_default():
    node = build_steady_tpms_node()
    assert node.fast_forward is None
    assert PicoCube(NodeConfig()).fast_forward is None


# -- randomized duty cycles (Hypothesis) --------------------------------------

# Wake periods whose 256-cycle sequence span is exactly representable and
# realigns with the charger tick — the drift-free regime the accelerator
# is specified over.  The charger ticks once per wake so the macro-cycle
# is exactly 256 wakes.


@settings(max_examples=5, deadline=None)
@given(
    wake=st.sampled_from([2.0, 5.0, 7.5, 10.0]),
    speed=st.sampled_from([40.0, 60.0, 90.0]),
)
def test_property_randomized_duty_cycle_bit_identical(wake, speed):
    """Ten macro-spans: leaps must happen and change nothing."""
    fast, plain = steady_pair(
        10 * 256 * wake,
        wake_period_s=wake,
        harvest_update_s=wake,
        speed_kmh=speed,
    )
    assert len(fast.fast_forward.leaps) >= 1
    assert_bit_identical(fast, plain)


@settings(max_examples=5, deadline=None)
@given(wake=st.sampled_from([1.5, 3.0, 6.0, 12.0]), spans=st.integers(4, 8))
def test_property_short_horizons_bit_identical(wake, spans):
    """Shorter horizons may or may not clear the octave guard; either
    way the output must be bit-identical."""
    fast, plain = steady_pair(
        spans * 256 * wake, wake_period_s=wake, harvest_update_s=wake
    )
    assert_bit_identical(fast, plain)


# -- automatic fallback -------------------------------------------------------


def fault_pair(horizon_s, seed=7):
    """The steady scenario with a seeded fault storm armed on both legs."""
    nodes = []
    for fast_forward in (True, False):
        node = build_steady_tpms_node(
            fast_forward=fast_forward, wake_period_s=2.0, harvest_update_s=2.0
        )
        schedule = random_schedule(
            seed,
            horizon_s,
            dropouts=1,
            dropout_span_s=(300.0, 900.0),
            dropout_derating=(0.1, 0.4),
            discharge_spikes=1,
            esr_drifts=1,
            degradations=1,
            noise_bursts=1,
            noise_flip_probability=(0.1, 0.3),
            resets=1,
        )
        injector = FaultInjector(node, schedule, noise_seed=seed)
        injector.arm()
        node.run(horizon_s)
        nodes.append(node)
    return nodes


def test_fault_campaign_forces_fallback_and_stays_identical():
    """Pending fault events keep the pending-event signature changing, so
    the accelerator never leaps — and the storm plays out identically."""
    horizon = 10 * 256 * 2.0
    fast, plain = fault_pair(horizon)
    assert fast.fast_forward.leaps == []
    assert_bit_identical(fast, plain)


def drained_pair(horizon_s):
    """A marginal unharvested cell that browns out mid-run."""
    nodes = []
    for fast_forward in (True, False):
        cell = NiMHCell(capacity_mah=0.01)
        cell.set_soc(0.08)
        config = NodeConfig(
            sensor_kind="tpms",
            fast_forward=fast_forward,
            brownout_recovery=True,
            recovery_voltage_v=1.19,
            recovery_check_period_s=30.0,
        )
        node = PicoCube(config, battery=cell)
        node.run(horizon_s)
        nodes.append(node)
    return nodes


def test_brownout_scenario_never_leaps_and_stays_identical():
    """A draining cell shifts the charge snapshot every cycle, so steady
    state is never proven; the brownout and recovery replay identically."""
    fast, plain = drained_pair(4.0 * 3600.0)
    audit = audit_node(plain)
    assert audit.brownouts >= 1  # the scenario does brown out
    assert fast.fast_forward.leaps == []
    assert_bit_identical(fast, plain)


# -- eligibility --------------------------------------------------------------


def test_motion_node_is_ineligible():
    node = build_motion_node()
    assert not CycleFastForward(node).eligible()


def test_packet_filter_makes_node_ineligible():
    node = build_steady_tpms_node(fast_forward=True)
    assert node.fast_forward.eligible()
    node.packet_filter = lambda packet, time: True
    assert not node.fast_forward.eligible()


def test_time_varying_charger_makes_node_ineligible():
    node = build_tpms_deployment().node
    assert not CycleFastForward(node).eligible()


def test_chaos_node_with_accelerator_changes_nothing():
    """The PR 2 chaos scenario re-run with the accelerator enabled: its
    charger is not declared time-invariant, so the node is ineligible and
    the outcome matches the pinned plain run exactly."""
    outcomes = []
    for fast_forward in (True, False):
        cell = NiMHCell(capacity_mah=0.1)
        cell.set_soc(0.15)
        config = NodeConfig(
            fast_forward=fast_forward,
            brownout_recovery=True,
            recovery_voltage_v=1.19,
            recovery_check_period_s=30.0,
        )
        node = PicoCube(config, battery=cell)
        node.attach_charger(lambda t: 10e-6, update_period_s=60.0)
        schedule = random_schedule(2008, 2.0 * 3600.0)
        injector = FaultInjector(node, schedule, noise_seed=2008)
        injector.arm()
        node.run(2.0 * 3600.0)
        outcomes.append(node)
    fast, plain = outcomes
    assert not fast.fast_forward.eligible()
    assert fast.fast_forward.leaps == []
    assert_bit_identical(fast, plain)
