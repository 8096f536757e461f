"""Reference ChaCha20 (RFC 8439 §2.3–2.4): one block, one quarter-round at a time.

This is the straightforward per-block kernel that ``repro.symmetric.chacha20``
replaced with a lane-packed one.  It is kept here, unchanged, as the oracle
the tests compare the product kernel against.
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _rotl(value: int, count: int) -> int:
    return ((value << count) | (value >> (32 - count))) & _MASK


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    if len(key) != 32:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8L", key))
    state.append(counter & _MASK)
    state.extend(struct.unpack("<3L", nonce))
    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    return struct.pack(
        "<16L", *((w + s) & _MASK for w, s in zip(working, state))
    )


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream starting at block ``counter``."""
    out = bytearray(len(data))
    for block_index in range((len(data) + 63) // 64):
        keystream = chacha20_block(key, counter + block_index, nonce)
        offset = block_index * 64
        chunk = data[offset : offset + 64]
        out[offset : offset + len(chunk)] = bytes(
            b ^ k for b, k in zip(chunk, keystream)
        )
    return bytes(out)
