"""BZ03 (Baek–Zheng): pairing-based CCA threshold encryption."""

import pytest

from repro.errors import (
    InvalidCiphertextError,
    InvalidShareError,
    ThresholdNotReachedError,
)
from repro.schemes import bz03
from repro.schemes.bz03 import Bz03Cipher, Bz03Ciphertext, Bz03DecryptionShare


@pytest.fixture(scope="module")
def cipher():
    return Bz03Cipher()


@pytest.fixture(scope="module")
def material():
    return bz03.keygen(1, 4)


class TestHappyPath:
    def test_encrypt_decrypt(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"pairing secret", b"lbl")
        cipher.verify_ciphertext(public, ct)
        dec = [cipher.create_decryption_share(shares[i], ct) for i in (0, 2)]
        for d in dec:
            cipher.verify_decryption_share(public, ct, d)
        assert cipher.combine(public, ct, dec) == b"pairing secret"

    def test_different_quorum(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"q", b"")
        dec = [cipher.create_decryption_share(shares[i], ct) for i in (1, 3)]
        assert cipher.combine(public, ct, dec) == b"q"

    def test_shares_carry_no_proof(self, cipher, material):
        # The point of BZ03: pairings check validity, no ZKP attached.
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"")
        share = cipher.create_decryption_share(shares[0], ct)
        assert not hasattr(share, "proof")

    def test_metadata(self, cipher):
        assert cipher.info.verification == "Pairings"
        assert cipher.info.hardness == "DL"

    def test_mask_is_pairing_of_scaled_hash(self, cipher, material, monkeypatch):
        """encrypt() computes e(ĥ^r, y); it must equal the textbook e(ĥ, y)^r."""
        public, shares = material
        pairing = public.pairing
        r = 0x0A1B2C3D4E5F60718293A4B5C6D7E8F9123456789ABCDEF0
        monkeypatch.setattr(pairing.g2, "random_scalar", lambda: r)
        ct = cipher.encrypt(public, b"pinned r", b"lbl")
        assert ct.u == pairing.g2.generator() ** r
        h_hat = bz03._h1(ct.label, ct.u)
        old_mask = bz03._kdf(pairing.pair(h_hat, public.y) ** r)
        new_mask = bz03._kdf(pairing.pair(h_hat**r, public.y))
        assert old_mask == new_mask
        # The ciphertext carries the key masked with exactly that value.
        sym_key = bz03._xor(ct.masked_key, old_mask)
        assert (
            bz03.ChaCha20Poly1305(sym_key).decrypt(ct.nonce, ct.payload, aad=ct.label)
            == b"pinned r"
        )
        dec = [cipher.create_decryption_share(shares[i], ct) for i in (0, 3)]
        assert cipher.combine(public, ct, dec) == b"pinned r"


class TestCcaGuards:
    def test_tampered_w_rejected(self, cipher, material):
        public, _ = material
        ct = cipher.encrypt(public, b"x", b"l")
        bad = Bz03Ciphertext(
            ct.label, ct.u, ct.masked_key,
            ct.w * public.pairing.g1.generator(), ct.nonce, ct.payload,
        )
        with pytest.raises(InvalidCiphertextError):
            cipher.verify_ciphertext(public, bad)

    def test_tampered_masked_key_rejected(self, cipher, material):
        public, _ = material
        ct = cipher.encrypt(public, b"x", b"l")
        bad = Bz03Ciphertext(
            ct.label, ct.u, bytes(32), ct.w, ct.nonce, ct.payload
        )
        with pytest.raises(InvalidCiphertextError):
            cipher.verify_ciphertext(public, bad)

    def test_nodes_refuse_invalid_ciphertext(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        bad = Bz03Ciphertext(
            ct.label, ct.u ** 2, ct.masked_key, ct.w, ct.nonce, ct.payload
        )
        with pytest.raises(InvalidCiphertextError):
            cipher.create_decryption_share(shares[0], bad)

    def test_label_binds_kem(self, cipher, material):
        # Same u but a different label changes ĥ = H1(label, u), so shares
        # from one label cannot decrypt another.
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"label-A")
        share = cipher.create_decryption_share(shares[0], ct)
        relabeled = Bz03Ciphertext(
            b"label-B", ct.u, ct.masked_key, ct.w, ct.nonce, ct.payload
        )
        with pytest.raises((InvalidShareError, InvalidCiphertextError)):
            cipher.verify_decryption_share(public, relabeled, share)


class TestShareValidation:
    def test_forged_share_rejected(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        good = cipher.create_decryption_share(shares[0], ct)
        forged = Bz03DecryptionShare(
            good.id, good.delta * public.pairing.g1.generator()
        )
        with pytest.raises(InvalidShareError):
            cipher.verify_decryption_share(public, ct, forged)

    def test_wrong_party_share_rejected(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        good = cipher.create_decryption_share(shares[0], ct)
        misattributed = Bz03DecryptionShare(2, good.delta)
        with pytest.raises(InvalidShareError):
            cipher.verify_decryption_share(public, ct, misattributed)

    def test_share_id_out_of_range(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        good = cipher.create_decryption_share(shares[0], ct)
        with pytest.raises(InvalidShareError):
            cipher.verify_decryption_share(
                public, ct, Bz03DecryptionShare(9, good.delta)
            )

    def test_threshold_enforced(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        dec = [cipher.create_decryption_share(shares[0], ct)]
        with pytest.raises(ThresholdNotReachedError):
            cipher.combine(public, ct, dec)

    def test_combine_with_forged_share_fails_loudly(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        good = cipher.create_decryption_share(shares[0], ct)
        forged = Bz03DecryptionShare(
            2, good.delta * public.pairing.g1.generator()
        )
        with pytest.raises(InvalidShareError):
            cipher.combine(public, ct, [good, forged])


class TestSerialization:
    def test_ciphertext_round_trip(self, cipher, material):
        public, _ = material
        ct = cipher.encrypt(public, b"round trip", b"lbl")
        restored = Bz03Ciphertext.from_bytes(ct.to_bytes())
        cipher.verify_ciphertext(public, restored)
        assert restored.to_bytes() == ct.to_bytes()

    def test_share_round_trip(self, cipher, material):
        public, shares = material
        ct = cipher.encrypt(public, b"x", b"l")
        share = cipher.create_decryption_share(shares[0], ct)
        restored = Bz03DecryptionShare.from_bytes(share.to_bytes())
        cipher.verify_decryption_share(public, ct, restored)

    def test_public_key_round_trip(self, material):
        public, _ = material
        restored = bz03.Bz03PublicKey.from_bytes(public.to_bytes())
        assert restored.y == public.y
        assert restored.verification_keys == public.verification_keys
