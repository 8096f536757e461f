"""ChaCha20 stream cipher (RFC 8439 §2.3–2.4), implemented from scratch and
lane-packed: word i of every block rides in one int, block k in bits [64k,
64k + 32) under a 32-bit carry guard, so the 20 rounds run once per message."""

from __future__ import annotations

import struct

from ..errors import CryptoError

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _quarter_round(a: int, b: int, c: int, d: int, m: int) -> tuple[int, int, int, int]:
    a = (a + b) & m
    d = ((t := d ^ a) << 16 | t >> 16) & m
    c = (c + d) & m
    b = ((t := b ^ c) << 12 | t >> 20) & m
    a = (a + b) & m
    d = ((t := d ^ a) << 8 | t >> 24) & m
    c = (c + d) & m
    b = ((t := b ^ c) << 7 | t >> 25) & m
    return a, b, c, d


def _keystream(key: bytes, counter: int, nonce: bytes, blocks: int) -> bytearray:
    """Keystream blocks ``counter`` … ``counter + blocks - 1``, each mod 2³²."""
    if len(key) != 32:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    rep = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * blocks, "little")
    m = _MASK * rep
    counters = ((counter + i) & _MASK for i in range(blocks))
    state = [w * rep for w in _CONSTANTS + struct.unpack("<8L", key)]
    state.append(int.from_bytes(struct.pack(f"<{blocks}Q", *counters), "little"))
    state += [w * rep for w in struct.unpack("<3L", nonce)]
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = state
    for _ in range(10):
        x0, x4, x8, x12 = _quarter_round(x0, x4, x8, x12, m)
        x1, x5, x9, x13 = _quarter_round(x1, x5, x9, x13, m)
        x2, x6, x10, x14 = _quarter_round(x2, x6, x10, x14, m)
        x3, x7, x11, x15 = _quarter_round(x3, x7, x11, x15, m)
        x0, x5, x10, x15 = _quarter_round(x0, x5, x10, x15, m)
        x1, x6, x11, x12 = _quarter_round(x1, x6, x11, x12, m)
        x2, x7, x8, x13 = _quarter_round(x2, x7, x8, x13, m)
        x3, x4, x9, x14 = _quarter_round(x3, x4, x9, x14, m)
    mixed = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    w = [(x + s) & m for x, s in zip(mixed, state)]
    out = bytearray(64 * blocks)
    for k in range(8):
        # Lane j of words 2k, 2k+1 side by side is bytes 8k … 8k+7 of block j.
        lanes = (w[2 * k] | w[2 * k + 1] << 32).to_bytes(8 * blocks, "little")
        for j in range(8):
            out[8 * k + j :: 64] = lanes[j::8]
    return out


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    return bytes(_keystream(key, counter, nonce, 1))


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream starting at block ``counter``."""
    stream = _keystream(key, counter, nonce, (len(data) + 63) // 64)[: len(data)]
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return mixed.to_bytes(len(data), "little")
