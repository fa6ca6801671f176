"""PicoCube packet format and CRC.

The node's functional spec is "take a sample, process the data, packetize
the data, and transmit the packet" (paper §3).  The exact over-the-air
format is not given in the paper, so this defines a compact OOK-friendly
frame with the fields any TPMS-class beacon needs:

=========  =====  ==========================================
Field      Bytes  Purpose
=========  =====  ==========================================
preamble   2      0xAA 0xAA — alternating bits for the RX AGC
sync       1      0x7E — frame delimiter
node id    1      which cube is talking
kind       1      payload type (TPMS / accel / heartbeat)
seq        1      rolling counter for loss measurement
payload    0-16   sensor words, 16-bit big-endian each
crc        1      CRC-8 (Dallas/Maxim polynomial) over id..payload
=========  =====  ==========================================
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..errors import PacketError
from .framing import bits_to_bytes, bytes_to_bits

PREAMBLE = bytes([0xAA, 0xAA])
SYNC = 0x7E

KIND_TPMS = 0x01
KIND_ACCEL = 0x02
KIND_HEARTBEAT = 0x03

MAX_PAYLOAD_WORDS = 8


def _crc8_bitwise(data: bytes, polynomial: int, init: int) -> int:
    crc = init
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ polynomial) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


#: One byte's worth of the default polynomial's shifts, per byte value.
#: Eight shifts only ever look at the low eight bits of ``crc ^ byte``,
#: hence the mask on lookup.
_CRC8_TABLE = tuple(_crc8_bitwise(bytes([byte]), 0x31, 0) for byte in range(256))


def crc8(data: bytes, polynomial: int = 0x31, init: int = 0x00) -> int:
    """CRC-8 (x^8 + x^5 + x^4 + 1, the Dallas/Maxim polynomial)."""
    if polynomial != 0x31:
        return _crc8_bitwise(data, polynomial, init)
    crc = init
    for byte in data:
        crc = _CRC8_TABLE[(crc ^ byte) & 0xFF]
    return crc


@dataclasses.dataclass(frozen=True)
class PicoPacket:
    """One over-the-air frame."""

    node_id: int
    kind: int
    seq: int
    payload_words: Sequence[int]

    def __post_init__(self) -> None:
        for field, value in (("node_id", self.node_id), ("kind", self.kind),
                             ("seq", self.seq)):
            if not 0 <= value <= 0xFF:
                raise PacketError(f"{field} {value} outside one byte")
        if len(self.payload_words) > MAX_PAYLOAD_WORDS:
            raise PacketError(
                f"payload of {len(self.payload_words)} words exceeds "
                f"{MAX_PAYLOAD_WORDS}"
            )
        for word in self.payload_words:
            if not 0 <= word <= 0xFFFF:
                raise PacketError(f"payload word {word} outside 16 bits")

    # -- serialisation -----------------------------------------------------

    def body(self) -> bytes:
        """The CRC-covered portion: id, kind, seq, length, payload."""
        out = bytearray([self.node_id, self.kind, self.seq,
                         len(self.payload_words)])
        for word in self.payload_words:
            out.append((word >> 8) & 0xFF)
            out.append(word & 0xFF)
        return bytes(out)

    def to_bytes(self) -> bytes:
        """Full frame: preamble + sync + body + CRC."""
        body = self.body()
        return PREAMBLE + bytes([SYNC]) + body + bytes([crc8(body)])

    def to_bits(self) -> List[int]:
        """Frame as a bit list, MSB first — the OOK modulator's input."""
        return bytes_to_bits(self.to_bytes())

    @property
    def bit_count(self) -> int:
        """Frame length in bits."""
        return 8 * len(self.to_bytes())

    # -- deserialisation ------------------------------------------------------

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "PicoPacket":
        """Parse a bit list back into a packet.

        Raises :class:`PacketError` on framing or CRC failure.
        """
        return PicoPacket.from_bytes(bits_to_bytes(bits))

    @staticmethod
    def from_bytes(frame: bytes) -> "PicoPacket":
        """Parse a byte frame back into a packet."""
        if len(frame) < len(PREAMBLE) + 1 + 4 + 1:
            raise PacketError(f"frame of {len(frame)} bytes too short")
        if frame[: len(PREAMBLE)] != PREAMBLE:
            raise PacketError("bad preamble")
        if frame[len(PREAMBLE)] != SYNC:
            raise PacketError("bad sync byte")
        body_and_crc = frame[len(PREAMBLE) + 1 :]
        body, crc_byte = body_and_crc[:-1], body_and_crc[-1]
        if crc8(body) != crc_byte:
            raise PacketError(
                f"CRC mismatch: computed {crc8(body):#04x}, got {crc_byte:#04x}"
            )
        node_id, kind, seq, length = body[0], body[1], body[2], body[3]
        expected = 4 + 2 * length
        if len(body) != expected:
            raise PacketError(
                f"length field says {length} words but body is {len(body)} bytes"
            )
        words = [
            (body[4 + 2 * k] << 8) | body[5 + 2 * k] for k in range(length)
        ]
        return PicoPacket(node_id=node_id, kind=kind, seq=seq, payload_words=words)


def encode_tpms_reading(
    node_id: int, seq: int, pressure_psi: float, temperature_c: float,
    acceleration_g: float, supply_v: float,
) -> PicoPacket:
    """Quantise a TPMS sample into a packet (fixed-point scalings)."""
    words = [
        _quantise(pressure_psi, 0.0, 100.0),
        _quantise(temperature_c, -40.0, 125.0),
        _quantise(acceleration_g, 0.0, 500.0),
        _quantise(supply_v, 0.0, 4.0),
    ]
    return PicoPacket(node_id=node_id, kind=KIND_TPMS, seq=seq, payload_words=words)


def decode_tpms_reading(packet: PicoPacket) -> dict:
    """Invert :func:`encode_tpms_reading`."""
    if packet.kind != KIND_TPMS:
        raise PacketError(f"not a TPMS packet (kind {packet.kind:#04x})")
    if len(packet.payload_words) != 4:
        raise PacketError("TPMS packet needs 4 payload words")
    w = packet.payload_words
    return {
        "pressure_psi": _dequantise(w[0], 0.0, 100.0),
        "temperature_c": _dequantise(w[1], -40.0, 125.0),
        "acceleration_g": _dequantise(w[2], 0.0, 500.0),
        "supply_v": _dequantise(w[3], 0.0, 4.0),
    }


def encode_accel_reading(
    node_id: int, seq: int, x_g: float, y_g: float, z_g: float
) -> PicoPacket:
    """Quantise an accelerometer sample (+-8 g full scale)."""
    words = [_quantise(v, -8.0, 8.0) for v in (x_g, y_g, z_g)]
    return PicoPacket(node_id=node_id, kind=KIND_ACCEL, seq=seq, payload_words=words)


def decode_accel_reading(packet: PicoPacket) -> dict:
    """Invert :func:`encode_accel_reading`."""
    if packet.kind != KIND_ACCEL:
        raise PacketError(f"not an accel packet (kind {packet.kind:#04x})")
    if len(packet.payload_words) != 3:
        raise PacketError("accel packet needs 3 payload words")
    x, y, z = (_dequantise(w, -8.0, 8.0) for w in packet.payload_words)
    return {"accel_x_g": x, "accel_y_g": y, "accel_z_g": z}


def _quantise(value: float, lo: float, hi: float) -> int:
    clipped = min(max(value, lo), hi)
    return round((clipped - lo) / (hi - lo) * 0xFFFF)


def _dequantise(word: int, lo: float, hi: float) -> float:
    return lo + word / 0xFFFF * (hi - lo)
