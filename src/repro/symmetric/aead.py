"""ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8)."""

from __future__ import annotations

import hmac
import secrets
import struct

from ..errors import CryptoError
from .chacha20 import chacha20_block, chacha20_encrypt
from .poly1305 import poly1305_mac


class AeadError(CryptoError):
    """Authentication failed or the inputs were malformed."""


def _pad16(data: bytes) -> bytes:
    remainder = len(data) % 16
    return bytes(16 - remainder) if remainder else b""


class ChaCha20Poly1305:
    """AEAD cipher: 32-byte key, 12-byte nonce, 16-byte tag."""

    KEY_SIZE = 32
    NONCE_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise AeadError("key must be 32 bytes")
        self._key = key

    @staticmethod
    def generate_key() -> bytes:
        return secrets.token_bytes(ChaCha20Poly1305.KEY_SIZE)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        otk = chacha20_block(self._key, 0, nonce)[:32]
        mac_data = (
            aad
            + _pad16(aad)
            + ciphertext
            + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext))
        )
        return poly1305_mac(otk, mac_data)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag."""
        if len(nonce) != self.NONCE_SIZE:
            raise AeadError("nonce must be 12 bytes")
        ciphertext = chacha20_encrypt(self._key, 1, nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise AeadError on failure."""
        if len(nonce) != self.NONCE_SIZE:
            raise AeadError("nonce must be 12 bytes")
        if len(data) < self.TAG_SIZE:
            raise AeadError("ciphertext shorter than the tag")
        ciphertext, tag = data[: -self.TAG_SIZE], data[-self.TAG_SIZE :]
        expected = self._tag(nonce, ciphertext, aad)
        if not hmac.compare_digest(tag, expected):
            raise AeadError("authentication tag mismatch")
        return chacha20_encrypt(self._key, 1, nonce, ciphertext)
