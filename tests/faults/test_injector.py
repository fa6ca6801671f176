"""FaultInjector: each fault family applies, composes, and restores."""

import pytest

from repro.core.config import NodeConfig
from repro.core.node import PicoCube
from repro.errors import ConfigurationError
from repro.faults.events import (
    ChannelNoiseBurst,
    ConverterDegradation,
    EsrDrift,
    HarvesterDropout,
    SelfDischargeSpike,
    SpuriousReset,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.net.packet import PicoPacket


def armed_node(*events, noise_seed=0):
    node = PicoCube(NodeConfig())
    injector = FaultInjector(node, FaultSchedule(events), noise_seed=noise_seed)
    injector.arm()
    return node, injector


class TestArming:
    def test_arm_twice_rejected(self):
        node, injector = armed_node()
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_conflicting_packet_filter_rejected(self):
        node = PicoCube(NodeConfig())
        node.packet_filter = lambda packet, t: True
        injector = FaultInjector(node, FaultSchedule())
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_log_records_transitions(self):
        node, injector = armed_node(EsrDrift(10.0, 20.0))
        node.run(60.0)
        assert injector.log == [(10.0, "EsrDrift:on"), (30.0, "EsrDrift:off")]


class TestHarvesterDropout:
    def test_derating_applied_and_restored(self):
        node, _ = armed_node(HarvesterDropout(50.0, 100.0, derating=0.3))
        node.run(100.0)
        assert node._harvest_derating == 0.3
        node.run(100.0)
        assert node._harvest_derating == 1.0

    def test_overlapping_dropouts_compose_multiplicatively(self):
        node, _ = armed_node(
            HarvesterDropout(0.0, 200.0, derating=0.5),
            HarvesterDropout(50.0, 100.0, derating=0.5),
        )
        node.run(100.0)
        assert node._harvest_derating == pytest.approx(0.25)
        node.run(75.0)
        assert node._harvest_derating == pytest.approx(0.5)
        node.run(50.0)
        assert node._harvest_derating == pytest.approx(1.0)

    def test_dropout_starves_the_charger(self):
        charged = PicoCube(NodeConfig())
        charged.attach_charger(lambda t: 20e-6, update_period_s=10.0)
        charged.run(600.0)

        starved = PicoCube(NodeConfig())
        starved.attach_charger(lambda t: 20e-6, update_period_s=10.0)
        FaultInjector(
            starved, FaultSchedule([HarvesterDropout(0.0, 600.0)])
        ).arm()
        starved.run(600.0)
        assert starved.battery.charge < charged.battery.charge


class TestBatteryFaults:
    def test_self_discharge_spike_drains_faster(self):
        node, _ = armed_node(SelfDischargeSpike(0.0, 600.0, multiplier=50.0))
        node.run(300.0)
        assert node.battery._self_discharge_multiplier == 50.0
        node.run(600.0)
        assert node.battery._self_discharge_multiplier == 1.0

    def test_esr_drift_scales_internal_resistance(self):
        node, _ = armed_node(EsrDrift(0.0, 100.0, multiplier=3.0))
        baseline = PicoCube(NodeConfig()).battery.internal_resistance()
        node.run(50.0)
        assert node.battery.internal_resistance() == pytest.approx(3.0 * baseline)
        node.run(100.0)
        assert node.battery.internal_resistance() == pytest.approx(baseline)


class TestConverterDegradation:
    def test_loss_factor_applied_and_restored(self):
        node, _ = armed_node(ConverterDegradation(0.0, 100.0, loss_factor=1.4))
        node.run(50.0)
        assert node.train.loss_factor == 1.4
        node.run(100.0)
        assert node.train.loss_factor == 1.0

    def test_degradation_costs_battery_charge(self):
        healthy = PicoCube(NodeConfig())
        healthy.run(600.0)
        degraded, _ = armed_node(
            ConverterDegradation(0.0, 600.0, loss_factor=1.5)
        )
        degraded.run(600.0)
        assert degraded.battery.charge < healthy.battery.charge


class TestComponentDegradation:
    def test_component_factor_applied_and_restored(self):
        node, _ = armed_node(
            ConverterDegradation(0.0, 100.0, loss_factor=1.5,
                                 component="tps60313")
        )
        node.run(50.0)
        assert node.train.component_degradations() == {"tps60313": 1.5}
        assert node.train.loss_factor == 1.0  # train-wide path untouched
        node.run(100.0)
        assert node.train.component_degradations() == {}

    def test_overlapping_component_faults_compose_multiplicatively(self):
        node, _ = armed_node(
            ConverterDegradation(0.0, 200.0, loss_factor=1.2,
                                 component="tps60313"),
            ConverterDegradation(50.0, 100.0, loss_factor=1.5,
                                 component="tps60313"),
        )
        node.run(100.0)
        assert node.train.component_degradations() == {
            "tps60313": pytest.approx(1.8)
        }
        node.run(75.0)
        assert node.train.component_degradations() == {
            "tps60313": pytest.approx(1.2)
        }
        node.run(50.0)
        assert node.train.component_degradations() == {}

    def test_aged_component_costs_battery_charge(self):
        healthy = PicoCube(NodeConfig())
        healthy.run(600.0)
        degraded, _ = armed_node(
            ConverterDegradation(0.0, 600.0, loss_factor=1.8,
                                 component="tps60313")
        )
        degraded.run(600.0)
        assert degraded.battery.charge < healthy.battery.charge


class TestSpuriousReset:
    def test_reset_restarts_the_sequence_counter(self):
        node, _ = armed_node(SpuriousReset(61.0))
        node.run(120.0)
        assert node.resets == 1
        seqs = [packet.seq for packet in node.packets_sent]
        assert 0 in seqs[1:], "sequence numbering never restarted"

    def test_node_keeps_sampling_after_reset(self):
        node, _ = armed_node(SpuriousReset(30.0))
        node.run(120.0)
        clean = PicoCube(NodeConfig())
        clean.run(120.0)
        # At most one cycle lost to the abort.
        assert node.cycles_completed >= clean.cycles_completed - 1


class TestChannelNoise:
    def test_noise_burst_corrupts_packets(self):
        node, injector = armed_node(
            ChannelNoiseBurst(0.0, 300.0, flip_probability=0.5),
            noise_seed=7,
        )
        node.run(300.0)
        assert node.packets_corrupted, "no packet was corrupted"
        assert len(injector.corrupted) == len(node.packets_corrupted)
        assert len(node.packets_sent) + len(node.packets_corrupted) > 0

    def test_corrupted_frames_fail_crc(self):
        node, injector = armed_node(
            ChannelNoiseBurst(0.0, 300.0, flip_probability=0.2),
            noise_seed=11,
        )
        node.run(300.0)
        assert injector.corrupted
        for frame in injector.corrupted:
            bits = frame.corrupted_bits()
            assert bits != frame.packet.to_bits()
            with pytest.raises(Exception):
                PicoPacket.from_bits(bits)

    def test_outside_burst_packets_flow_clean(self):
        node, _ = armed_node(
            ChannelNoiseBurst(30.0, 30.0, flip_probability=1.0),
            noise_seed=3,
        )
        node.run(120.0)
        assert node.packets_sent, "clean windows delivered nothing"
        assert node.packets_corrupted, "burst corrupted nothing"
