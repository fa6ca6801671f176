"""Brownout -> recovery: the POR supervisor and its audit bookkeeping.

The acceptance scenario of the fault-injection work: a marginal node
loses its harvester, browns out, and — with ``brownout_recovery``
enabled — re-enters operation once the cell charges past the hysteresis
threshold, with the outage visible in the recorder and the audit.
"""

import pytest

from repro.core import BrownoutEvent, NodeConfig, PicoCube, audit_node
from repro.core.energy_audit import projected_lifetime_s
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSchedule, HarvesterDropout
from repro.storage import NiMHCell

HOUR = 3600.0
DROPOUT = HarvesterDropout(start_s=600.0, duration_s=4800.0)


def marginal_node(recovery=True):
    cell = NiMHCell(capacity_mah=0.1)
    cell.set_soc(0.12)
    config = NodeConfig(
        brownout_recovery=recovery,
        recovery_voltage_v=1.19,
        recovery_check_period_s=30.0,
    )
    node = PicoCube(config, battery=cell)
    node.attach_charger(lambda t: 10e-6, update_period_s=60.0)
    return node


@pytest.fixture(scope="module")
def stormy_node():
    node = marginal_node()
    FaultInjector(node, FaultSchedule([DROPOUT])).arm()
    node.run(3 * HOUR)
    return node


class TestRecoveryScenario:
    def test_brownout_happens_inside_the_dropout(self, stormy_node):
        events = stormy_node.brownout_events
        assert len(events) == 1
        assert DROPOUT.start_s < events[0].start_s < DROPOUT.end_s

    def test_node_recovers_after_harvest_returns(self, stormy_node):
        event = stormy_node.brownout_events[0]
        assert event.end_s is not None
        assert event.end_s > DROPOUT.end_s
        assert not stormy_node.browned_out

    def test_loads_are_zero_during_the_outage(self, stormy_node):
        event = stormy_node.brownout_events[0]
        total = stormy_node.recorder.total_trace()
        assert total.maximum(event.start_s + 1.0, event.end_s - 1.0) == 0.0

    def test_sampling_resumes_after_recovery(self, stormy_node):
        event = stormy_node.brownout_events[0]
        resumed = [t for t in stormy_node.cycle_start_times if t > event.end_s]
        assert len(resumed) > 100
        assert len(stormy_node.packets_sent) == stormy_node.cycles_completed

    def test_audit_reports_the_outage(self, stormy_node):
        audit = audit_node(stormy_node)
        event = stormy_node.brownout_events[0]
        assert audit.brownouts == 1
        assert audit.outage_s == pytest.approx(event.end_s - event.start_s)
        assert audit.availability == pytest.approx(
            1.0 - audit.outage_s / (3 * HOUR)
        )
        assert 0.0 < audit.availability < 1.0
        assert "brownouts" in audit.format_table()

    def test_channel_energies_match_pinned_float_hex(self, stormy_node):
        """The storm's per-channel energies, bit for bit.  A brownout
        lands mid-transmission and zeroes every channel, so the restart
        must rewrite loads equal to the ones recorded before it."""
        energies = {
            name: stormy_node.recorder.energy(name).hex()
            for name in stormy_node.recorder.channel_names()
        }
        assert energies == {
            "mcu": "0x1.5767cf594f02dp-7",
            "power-management": "0x1.d603e15625d5fp-7",
            "radio-digital": "0x1.21be759432604p-14",
            "radio-rf": "0x1.c42a4b615dfbap-12",
            "sensor": "0x1.d0189c13d6e46p-7",
        }

    def test_outage_property_matches_audit(self, stormy_node):
        assert stormy_node.outage_s == pytest.approx(
            audit_node(stormy_node).outage_s
        )

    def test_lifetime_projection_stays_finite(self, stormy_node):
        lifetime = projected_lifetime_s(stormy_node)
        assert 0.0 < lifetime < float("inf")

    def test_windowed_audit_only_counts_overlap(self, stormy_node):
        event = stormy_node.brownout_events[0]
        window = audit_node(stormy_node, event.start_s + 60.0,
                            event.start_s + 660.0)
        assert window.brownouts == 1
        assert window.outage_s == pytest.approx(600.0)
        healthy = audit_node(stormy_node, 0.0, 300.0)
        assert healthy.brownouts == 0
        assert healthy.outage_s == 0.0


class TestRecoverySemantics:
    def test_without_recovery_brownout_is_terminal(self):
        node = marginal_node(recovery=False)
        FaultInjector(node, FaultSchedule([DROPOUT])).arm()
        node.run(3 * HOUR)
        assert node.browned_out
        assert len(node.brownout_events) == 1
        assert node.brownout_events[0].ongoing
        cycles = node.cycles_completed
        node.run(HOUR)
        assert node.cycles_completed == cycles

    def test_browned_out_cell_still_self_discharges(self):
        node = marginal_node(recovery=False)
        node.set_harvest_derating(0.0)
        node.run(3 * HOUR)
        assert node.browned_out
        charge = node.battery.charge
        node.run(10 * HOUR)
        assert node.battery.charge < charge

    def test_recovery_threshold_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(brownout_recovery=True, recovery_voltage_v=0.0)
        with pytest.raises(ConfigurationError):
            NodeConfig(brownout_recovery=True, recovery_check_period_s=-1.0)

    def test_brownout_event_overlap_arithmetic(self):
        event = BrownoutEvent(start_s=100.0, end_s=200.0)
        assert event.overlap_s(0.0, 300.0) == 100.0
        assert event.overlap_s(150.0, 300.0) == 50.0
        assert event.overlap_s(0.0, 50.0) == 0.0
        ongoing = BrownoutEvent(start_s=100.0)
        assert ongoing.ongoing
        assert ongoing.overlap_s(0.0, 250.0) == 150.0

    def test_inject_reset_is_a_noop_while_browned_out(self):
        node = marginal_node(recovery=False)
        node.set_harvest_derating(0.0)
        node.run(3 * HOUR)
        assert node.browned_out
        node.inject_reset()
        assert node.resets == 0
