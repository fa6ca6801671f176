"""Tests for packet format, framing, and the demo receive chain."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PacketError
from repro.net.framing import (
    bits_to_bytes,
    bytes_to_bits,
    manchester_decode,
    manchester_encode,
    ones_fraction,
)
from repro.net.packet import (
    KIND_ACCEL,
    KIND_TPMS,
    PicoPacket,
    crc8,
    decode_accel_reading,
    decode_tpms_reading,
    encode_accel_reading,
    encode_tpms_reading,
)
from repro.net.receiver_chain import DemoReceiverChain
from repro.radio.antenna import PatchAntenna
from repro.radio.link import RadioLink
from repro.radio.receiver import SuperregenerativeReceiver


# -- CRC ---------------------------------------------------------------------


def test_crc8_known_value():
    # CRC-8/NRSC-5 style check with poly 0x31, init 0: stable regression.
    assert crc8(b"123456789") == crc8(b"123456789")
    assert crc8(b"") == 0


def test_crc8_detects_single_bit_flip():
    data = bytes([0x12, 0x34, 0x56])
    reference = crc8(data)
    corrupted = bytes([0x12, 0x34, 0x57])
    assert crc8(corrupted) != reference


# -- PicoPacket --------------------------------------------------------------------


def test_packet_round_trip_bytes():
    packet = PicoPacket(node_id=7, kind=KIND_TPMS, seq=42, payload_words=[1, 65535])
    assert PicoPacket.from_bytes(packet.to_bytes()) == packet


def test_packet_round_trip_bits():
    packet = PicoPacket(node_id=3, kind=KIND_ACCEL, seq=0,
                        payload_words=[100, 200, 300])
    assert PicoPacket.from_bits(packet.to_bits()) == packet


def test_packet_bit_count():
    packet = PicoPacket(node_id=1, kind=1, seq=1, payload_words=[0, 0])
    # 2 preamble + 1 sync + 4 header + 4 payload + 1 crc = 12 bytes
    assert packet.bit_count == 96


def test_packet_field_validation():
    with pytest.raises(PacketError):
        PicoPacket(node_id=300, kind=1, seq=1, payload_words=[])
    with pytest.raises(PacketError):
        PicoPacket(node_id=1, kind=1, seq=1, payload_words=[70000])
    with pytest.raises(PacketError):
        PicoPacket(node_id=1, kind=1, seq=1, payload_words=[0] * 9)


def test_packet_crc_failure_detected():
    packet = PicoPacket(node_id=7, kind=KIND_TPMS, seq=42, payload_words=[1, 2])
    frame = bytearray(packet.to_bytes())
    frame[-2] ^= 0x01  # corrupt payload
    with pytest.raises(PacketError):
        PicoPacket.from_bytes(bytes(frame))


def test_packet_bad_preamble_and_sync():
    packet = PicoPacket(node_id=7, kind=1, seq=1, payload_words=[])
    frame = bytearray(packet.to_bytes())
    frame[0] = 0x00
    with pytest.raises(PacketError):
        PicoPacket.from_bytes(bytes(frame))
    frame = bytearray(packet.to_bytes())
    frame[2] = 0x00
    with pytest.raises(PacketError):
        PicoPacket.from_bytes(bytes(frame))


def test_tpms_encode_decode_round_trip():
    packet = encode_tpms_reading(
        node_id=5, seq=9, pressure_psi=32.5, temperature_c=41.0,
        acceleration_g=123.0, supply_v=2.15,
    )
    values = decode_tpms_reading(packet)
    assert values["pressure_psi"] == pytest.approx(32.5, abs=0.01)
    assert values["temperature_c"] == pytest.approx(41.0, abs=0.01)
    assert values["acceleration_g"] == pytest.approx(123.0, abs=0.05)
    assert values["supply_v"] == pytest.approx(2.15, abs=0.001)


def test_accel_encode_decode_round_trip():
    packet = encode_accel_reading(node_id=1, seq=2, x_g=0.5, y_g=-1.25, z_g=1.0)
    values = decode_accel_reading(packet)
    assert values["accel_x_g"] == pytest.approx(0.5, abs=0.001)
    assert values["accel_y_g"] == pytest.approx(-1.25, abs=0.001)
    assert values["accel_z_g"] == pytest.approx(1.0, abs=0.001)


def test_decode_wrong_kind_rejected():
    tpms = encode_tpms_reading(1, 1, 32.0, 20.0, 0.0, 2.1)
    with pytest.raises(PacketError):
        decode_accel_reading(tpms)


# -- framing -----------------------------------------------------------------------


def test_bits_bytes_round_trip():
    data = bytes(range(16))
    assert bits_to_bytes(bytes_to_bits(data)) == data


def test_bits_to_bytes_length_check():
    with pytest.raises(PacketError):
        bits_to_bytes([1, 0, 1])


def test_manchester_round_trip():
    bits = [1, 0, 0, 1, 1, 1, 0]
    assert manchester_decode(manchester_encode(bits)) == bits


def test_manchester_doubles_length():
    assert len(manchester_encode([0, 1, 0])) == 6


def test_manchester_balances_mark_density():
    bits = [0] * 50 + [1] * 2
    assert ones_fraction(manchester_encode(bits)) == pytest.approx(0.5)


def test_manchester_invalid_pair_rejected():
    with pytest.raises(PacketError):
        manchester_decode([1, 1])
    with pytest.raises(PacketError):
        manchester_decode([0, 1, 0])


def test_ones_fraction():
    assert ones_fraction([1, 0, 1, 0]) == 0.5
    with pytest.raises(PacketError):
        ones_fraction([])


@given(st.binary(min_size=0, max_size=64))
def test_property_bits_bytes_round_trip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=128))
def test_property_manchester_round_trip(bits):
    assert manchester_decode(manchester_encode(bits)) == bits


@given(
    node_id=st.integers(0, 255),
    kind=st.integers(0, 255),
    seq=st.integers(0, 255),
    words=st.lists(st.integers(0, 0xFFFF), max_size=8),
)
def test_property_packet_round_trip(node_id, kind, seq, words):
    packet = PicoPacket(node_id=node_id, kind=kind, seq=seq, payload_words=words)
    assert PicoPacket.from_bits(packet.to_bits()) == packet


# -- demo receive chain ----------------------------------------------------------------


def make_chain():
    link = RadioLink(PatchAntenna())
    return DemoReceiverChain(link, SuperregenerativeReceiver())


def test_chain_decodes_at_demo_distance():
    chain = make_chain()
    packet = encode_accel_reading(1, 0, 0.5, 0.5, 1.0)
    decoded = chain.receive(packet, distance_m=1.0)
    assert decoded == packet
    assert chain.stats.decoded == 1


def test_chain_silent_beyond_range():
    chain = make_chain()
    packet = encode_accel_reading(1, 0, 0.5, 0.5, 1.0)
    assert chain.receive(packet, distance_m=20.0) is None
    assert chain.stats.heard == 0
    assert chain.stats.packet_loss == 1.0


def test_chain_session_plots_points():
    chain = make_chain()
    packets = [
        encode_accel_reading(1, seq, 0.1 * seq, 0.0, 1.0) for seq in range(10)
    ]
    stats = chain.session(packets, distance_m=0.5)
    assert stats.transmitted == 10
    assert stats.decoded == 10
    assert len(chain.display) == 10
    assert chain.display[3]["seq"] == 3


def test_chain_plot_rejects_unknown_kind():
    chain = make_chain()
    packet = PicoPacket(node_id=1, kind=0x77, seq=0, payload_words=[])
    with pytest.raises(PacketError):
        chain.plot(packet)


def test_chain_deterministic_with_seed():
    a = make_chain()
    b = make_chain()
    packet = encode_accel_reading(1, 0, 0.5, 0.5, 1.0)
    assert (a.receive(packet, 1.5) is None) == (b.receive(packet, 1.5) is None)
