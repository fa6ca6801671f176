"""Bit-level framing utilities: bit/byte conversion and Manchester coding.

Plain OOK frames can have long runs of zeros (carrier off), which starve
an energy-detecting receiver's threshold tracking.  Manchester encoding
guarantees a transition per bit at the cost of 2x on-air time — a classic
trade the benchmarks quantify (energy per packet vs. robustness).
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import PacketError


#: MSB-first bits of every byte value: frames are expanded by lookup.
_BYTE_BITS = tuple(
    tuple((byte >> k) & 1 for k in range(7, -1, -1)) for byte in range(256)
)


def bytes_to_bits(data: bytes) -> List[int]:
    """MSB-first bit expansion."""
    bits: List[int] = []
    for byte in data:
        bits.extend(_BYTE_BITS[byte])
    return bits


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    if len(bits) % 8 != 0:
        raise PacketError(f"bit count {len(bits)} is not a whole byte")
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for bit in bits[i : i + 8]:
            if bit not in (0, 1):
                raise PacketError(f"bit value {bit!r} is not 0/1")
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)


def manchester_encode(bits: Sequence[int]) -> List[int]:
    """IEEE-convention Manchester: 0 -> 01, 1 -> 10."""
    out = []
    for bit in bits:
        if bit == 0:
            out.extend((0, 1))
        elif bit == 1:
            out.extend((1, 0))
        else:
            raise PacketError(f"bit value {bit!r} is not 0/1")
    return out


def manchester_decode(chips: Sequence[int]) -> List[int]:
    """Invert :func:`manchester_encode`; raises on invalid chip pairs."""
    if len(chips) % 2 != 0:
        raise PacketError(f"chip count {len(chips)} is odd")
    out = []
    for i in range(0, len(chips), 2):
        pair = (chips[i], chips[i + 1])
        if pair == (0, 1):
            out.append(0)
        elif pair == (1, 0):
            out.append(1)
        else:
            raise PacketError(f"invalid Manchester pair {pair} at chip {i}")
    return out


def ones_fraction(bits: Sequence[int]) -> float:
    """Mark density — what sets OOK average power."""
    if not bits:
        raise PacketError("empty bit sequence")
    return bits.count(1) / len(bits)
