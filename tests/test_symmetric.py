"""ChaCha20-Poly1305: RFC 8439 vectors, tampering, property round-trips,
and the lane-packed ChaCha20 kernel against the per-block oracle."""

import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CryptoError
from repro.symmetric import (
    AeadError,
    ChaCha20Poly1305,
    chacha20_block,
    chacha20_encrypt,
    poly1305_mac,
)
from repro.symmetric import aead as aead_module
from tests.chacha20_oracle import chacha20_encrypt as oracle_encrypt

SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


class TestChaCha20Rfc8439:
    def test_block_function_vector(self):
        """RFC 8439 §2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block.hex() == (
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_encryption_vector(self):
        """RFC 8439 §2.4.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        ciphertext = chacha20_encrypt(key, 1, nonce, SUNSCREEN)
        assert ciphertext.hex().startswith(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        )

    def test_stream_is_involution(self):
        key = b"k" * 32
        nonce = b"n" * 12
        data = b"some plaintext of arbitrary length.."
        assert chacha20_encrypt(key, 7, nonce, chacha20_encrypt(key, 7, nonce, data)) == data

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            chacha20_block(b"short", 0, bytes(12))

    def test_bad_nonce_length(self):
        with pytest.raises(CryptoError):
            chacha20_block(bytes(32), 0, b"short")

    def test_counter_advances_keystream(self):
        key, nonce = bytes(32), bytes(12)
        assert chacha20_block(key, 0, nonce) != chacha20_block(key, 1, nonce)


class TestLanePackedKernel:
    """The product kernel runs every block of a message in one pass; the
    per-block oracle in ``tests/chacha20_oracle.py`` is the reference."""

    KEY = bytes(range(32))
    NONCE = bytes.fromhex("000000000000004a00000000")

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=12, max_size=12),
        st.one_of(
            st.integers(0, 2**32 - 1),
            st.sampled_from([0, 1, 2**32 - 70, 2**32 - 2, 2**32 - 1]),
        ),
        st.integers(0, 4200),
    )
    def test_matches_oracle(self, key, nonce, counter, size):
        data = bytes((7 * i + size) % 256 for i in range(size))
        assert chacha20_encrypt(key, counter, nonce, data) == oracle_encrypt(
            key, counter, nonce, data
        )

    @pytest.mark.parametrize("counter", [1, 2**32 - 1])
    def test_matches_oracle_at_64_kib(self, counter):
        data = bytes(range(256)) * 256
        assert chacha20_encrypt(self.KEY, counter, self.NONCE, data) == (
            oracle_encrypt(self.KEY, counter, self.NONCE, data)
        )

    def test_counter_wraps_per_block(self):
        """Block 2³²−1 is followed by block 0, as in the per-block kernel."""
        stream = chacha20_encrypt(self.KEY, 2**32 - 1, self.NONCE, bytes(128))
        assert stream[:64] == chacha20_block(self.KEY, 2**32 - 1, self.NONCE)
        assert stream[64:] == chacha20_block(self.KEY, 0, self.NONCE)

    def test_empty_input(self):
        assert chacha20_encrypt(self.KEY, 0, self.NONCE, b"") == b""


class TestPoly1305:
    def test_rfc8439_vector(self):
        """RFC 8439 §2.5.2."""
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            poly1305_mac(b"short", b"data")

    def test_different_messages_differ(self):
        key = bytes(range(32))
        assert poly1305_mac(key, b"a") != poly1305_mac(key, b"b")

    def test_constant_time_equal(self, monkeypatch):
        """The AEAD compares tags with the stdlib's constant-time
        ``hmac.compare_digest``, and a one-bit difference fails it."""
        compared, real = [], hmac.compare_digest

        def spy(a, b):
            compared.append((a, b))
            return real(a, b)

        monkeypatch.setattr(aead_module.hmac, "compare_digest", spy)
        aead = ChaCha20Poly1305(bytes(range(32)))
        out = aead.encrypt(bytes(12), b"payload")
        assert aead.decrypt(bytes(12), out) == b"payload"
        with pytest.raises(AeadError):
            aead.decrypt(bytes(12), out[:-1] + bytes([out[-1] ^ 1]))
        assert [len(a) + len(b) for a, b in compared] == [32, 32]


class TestAead:
    KEY = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    NONCE = bytes.fromhex("070000004041424344454647")
    AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")

    def test_rfc8439_aead_vector(self):
        """RFC 8439 §2.8.2."""
        out = ChaCha20Poly1305(self.KEY).encrypt(self.NONCE, SUNSCREEN, self.AAD)
        assert out[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
        assert out[:16].hex() == "d31a8d34648e60db7b86afbc53ef7ec2"

    def test_round_trip(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = aead.encrypt(self.NONCE, b"payload", b"aad")
        assert aead.decrypt(self.NONCE, out, b"aad") == b"payload"

    def test_tampered_ciphertext_rejected(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = bytearray(aead.encrypt(self.NONCE, b"payload"))
        out[0] ^= 1
        with pytest.raises(AeadError):
            aead.decrypt(self.NONCE, bytes(out))

    def test_tampered_tag_rejected(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = bytearray(aead.encrypt(self.NONCE, b"payload"))
        out[-1] ^= 1
        with pytest.raises(AeadError):
            aead.decrypt(self.NONCE, bytes(out))

    def test_wrong_aad_rejected(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = aead.encrypt(self.NONCE, b"payload", b"right")
        with pytest.raises(AeadError):
            aead.decrypt(self.NONCE, out, b"wrong")

    def test_wrong_nonce_rejected(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = aead.encrypt(self.NONCE, b"payload")
        with pytest.raises(AeadError):
            aead.decrypt(bytes(12), out)

    def test_wrong_key_rejected(self):
        out = ChaCha20Poly1305(self.KEY).encrypt(self.NONCE, b"payload")
        with pytest.raises(AeadError):
            ChaCha20Poly1305(bytes(32)).decrypt(self.NONCE, out)

    def test_short_input_rejected(self):
        with pytest.raises(AeadError):
            ChaCha20Poly1305(self.KEY).decrypt(self.NONCE, b"short")

    def test_bad_key_size(self):
        with pytest.raises(AeadError):
            ChaCha20Poly1305(b"short")

    def test_bad_nonce_size(self):
        with pytest.raises(AeadError):
            ChaCha20Poly1305(self.KEY).encrypt(b"short", b"data")

    def test_empty_plaintext(self):
        aead = ChaCha20Poly1305(self.KEY)
        out = aead.encrypt(self.NONCE, b"")
        assert aead.decrypt(self.NONCE, out) == b""

    def test_generate_key_length_and_uniqueness(self):
        k1 = ChaCha20Poly1305.generate_key()
        k2 = ChaCha20Poly1305.generate_key()
        assert len(k1) == 32 and k1 != k2

    @settings(max_examples=25)
    @given(st.binary(max_size=2048), st.binary(max_size=64))
    def test_round_trip_property(self, plaintext, aad):
        aead = ChaCha20Poly1305(self.KEY)
        out = aead.encrypt(self.NONCE, plaintext, aad)
        assert aead.decrypt(self.NONCE, out, aad) == plaintext
