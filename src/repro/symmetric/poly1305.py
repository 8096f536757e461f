"""Poly1305 one-time authenticator (RFC 8439 §2.5), implemented from scratch."""

from __future__ import annotations

from ..errors import CryptoError

_P1305 = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key."""
    if len(key) != 32:
        raise CryptoError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    for offset in range(0, len(message), 16):
        chunk = message[offset : offset + 16]
        block = int.from_bytes(chunk, "little") + (1 << (8 * len(chunk)))
        accumulator = ((accumulator + block) * r) % _P1305
    tag = (accumulator + s) % (1 << 128)
    return tag.to_bytes(16, "little")

