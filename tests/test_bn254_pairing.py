"""Optimal ate pairing: bilinearity, non-degeneracy, batch checks."""

import hashlib
import importlib
import random
from math import gcd

import pytest

from repro.errors import CryptoError
from repro.groups.bn254 import bn254_pairing, pairing, pairing_check
from repro.groups.bn254.fp import FP2_ONE, FP2_ZERO, Fp2, Fp12, P, R
from repro.groups.bn254.g1 import BN254G1Element
from repro.groups.bn254.g2 import B2, G2_COFACTOR, BN254G2Element
from repro.groups.bn254.pairing import (
    ATE_LOOP_COUNT,
    BN_X,
    _LOOP_NAF,
    _add_step,
    _final_exponentiation,
    _miller_loop,
    _normalize,
)
from repro.schemes import bls04, bz03


@pytest.fixture(scope="module")
def ctx():
    bilinear = bn254_pairing()
    e = bilinear.pair(bilinear.g1.generator(), bilinear.g2.generator())
    return bilinear, e


class TestPairing:
    def test_loop_count(self):
        assert ATE_LOOP_COUNT == 6 * BN_X + 2

    def test_non_degenerate(self, ctx):
        _, e = ctx
        assert not e.is_one()
        assert not e.is_zero()

    def test_output_in_order_r_subgroup(self, ctx):
        _, e = ctx
        assert (e**R).is_one()

    def test_bilinear_in_g1(self, ctx):
        bilinear, e = ctx
        p2 = bilinear.g1.generator() ** 2
        assert bilinear.pair(p2, bilinear.g2.generator()) == e * e

    def test_bilinear_in_g2(self, ctx):
        bilinear, e = ctx
        q3 = bilinear.g2.generator() ** 3
        assert bilinear.pair(bilinear.g1.generator(), q3) == e**3

    def test_full_bilinearity(self, ctx):
        bilinear, e = ctx
        a, b = 1234567, 7654321
        lhs = bilinear.pair(
            bilinear.g1.generator() ** a, bilinear.g2.generator() ** b
        )
        assert lhs == e ** ((a * b) % R)

    def test_inverse_relation(self, ctx):
        bilinear, e = ctx
        inv = bilinear.pair(
            bilinear.g1.generator().inverse(), bilinear.g2.generator()
        )
        assert (e * inv).is_one()

    def test_identity_inputs(self, ctx):
        bilinear, _ = ctx
        assert bilinear.pair(
            bilinear.g1.identity(), bilinear.g2.generator()
        ).is_one()
        assert bilinear.pair(
            bilinear.g1.generator(), bilinear.g2.identity()
        ).is_one()

    def test_deterministic(self, ctx):
        bilinear, e = ctx
        assert bilinear.pair(bilinear.g1.generator(), bilinear.g2.generator()) == e


class TestPairingCheck:
    def test_cancelling_product(self, ctx):
        bilinear, _ = ctx
        p = bilinear.g1.generator() ** 5
        q = bilinear.g2.generator() ** 9
        assert pairing_check([(p, q), (p.inverse(), q)])

    def test_non_cancelling_product(self, ctx):
        bilinear, _ = ctx
        p = bilinear.g1.generator()
        q = bilinear.g2.generator()
        assert not pairing_check([(p, q), (p, q)])

    def test_empty_product_is_one(self):
        assert pairing_check([])

    def test_bls_style_equation(self, ctx):
        # e(σ, g2) == e(H, y) with σ = H^x, y = g2^x.
        bilinear, _ = ctx
        x = 0xDEADBEEF
        h = bilinear.g1.hash_to_element(b"msg")
        sigma = h**x
        y = bilinear.g2.generator() ** x
        assert pairing_check(
            [(sigma, bilinear.g2.generator()), (h.inverse(), y)]
        )


class TestFinalExponentiation:
    def test_matches_naive_exponent(self, ctx):
        """The DSD addition chain equals the plain (p¹²−1)/r power (slow)."""
        bilinear, _ = ctx
        f = _miller_loop(bilinear.g2.generator(), bilinear.g1.generator())
        fast = _final_exponentiation(f)
        naive = f ** ((P**12 - 1) // R)
        assert fast == naive

    def test_one_maps_to_one(self):
        assert _final_exponentiation(Fp12.one()).is_one()


# --- Golden vectors -----------------------------------------------------
# Recorded from the parent commit of the flat-kernel rewrite (the class-tower
# pairing with affine Miller loop); a GT-value drift must fail loudly, because
# signatures and BZ03 ciphertexts made before the rewrite have to verify and
# decrypt after it.

GOLDEN_PAIR_GENERATORS = (
    "fb26b1c6e9acaab5348b05c9e7aa5e9418aa797c24f49052ae4585632b1cb52b"
)
GOLDEN_PAIR_SEEDED = (  # random.Random(254): a, b = randrange(1, R) twice per row
    "a9a42779e5b4438f77fb30766c332cee0ebf96c7f49f86900f8d38411d3832d1",
    "028dead413246cc6a62b4243238e405653ebf45700f1fb867e6bf7f9208a62bd",
    "157d8fcd1ccfff26d8966fb105f8d18475f610b6c5e5136e50c98bb0e058bc2f",
)
GOLDEN_G2_HASH = "54a31bd5403c8a37f39c6a52227125bdfa1fa95d77c0545208261095756bccf1"
# Fixed key: x_i = X + i·C (t = 1, n = 4), secret X.
KEY_X = 0x1F2E3D4C5B6A79881726354453627180AABBCCDDEEFF0011
KEY_C = 0x0123456789ABCDEFFEDCBA9876543210
KEY_SHARES = {i: (KEY_X + i * KEY_C) % R for i in range(1, 5)}
GOLDEN_MESSAGE = b"golden message"
GOLDEN_BLS04_SIGNATURE = bytes.fromhex(
    "000000401512ef9c15d4992a3be49da4f380d04f5bfcdb3b00c08ea17d311710d846cb87"
    "034c6ef481cfa311a5ce904ffafd1aad815e23b793023512c5d5c614493d1b16"
)
GOLDEN_BLS04_SHARE_2 = bytes.fromhex(
    "00000001020000004021dcd28d5a3b474419384fe9b9d4b72e07627c87412eea7231b574"
    "c8b21360c4027b2df7ab2d469fd5ce5997d0d0224c464438f3272943d772482313f00e34d9"
)
BZ03_R = 0x0A1B2C3D4E5F60718293A4B5C6D7E8F9123456789ABCDEF0
GOLDEN_BZ03_MASK = "be1361feeb131147793cd5920b4c8d7b7b9b7edbdb5aa98c80c40d4c05a30fca"
GOLDEN_BZ03_CIPHERTEXT = bytes.fromhex(
    "0000000c676f6c64656e206c6162656c0000008024b415e7c61f9152d1f1b6918b68c565"
    "b24f0a7187e449bfe028be00c7fb893e109ed128e0edc415efc0664c2b5301dbc0aaac3e"
    "fa7e42860b19468d9f7107171ba57f44093eda66433ea83c8a3f1b6db78655313d8cd9fc"
    "31a66c3db705db70219c7660158d613f526744538885f1310b6b2ded76182bcbe3af132a"
    "b6df393600000020be1263fdef1617407135df99074183746b8a6cc8cf4fbf9b98dd1757"
    "19be11d5000000400f68d9dc816ad51068dd50740d58ee8c73da3d2ed2bcb722d3bdd00b"
    "8b9861451e2610220b4be134af9fdcb2fe0dbce5a35d8a846294fb796b7b2b1699c2006b"
    "0000000c000102030405060708090a0b00000020ee9464644c798530dbe2569dec787617"
    "30f34663e97d913dd1c931876eb8f440"
)
# pairing_check answers of the parent commit on _check_cases(), case 0 first.
GOLDEN_CHECK_TABLE = "10000111" * 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixed_public(cls, ctx):
    g2 = ctx.g2.generator()
    return cls(1, 4, g2**KEY_X, tuple(g2 ** KEY_SHARES[i] for i in range(1, 5)))


def _check_cases(ctx):
    """64 pairing_check inputs, 8 kinds × 8 seeds, under the fixed key."""
    rng = random.Random(1304)
    g2 = ctx.g2.generator()
    inf1, inf2 = ctx.g1.identity(), ctx.g2.identity()
    for i in range(64):
        m = b"case-%d" % i
        hm = ctx.g1.hash_to_element(m)
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        if b == a:
            b = a % 4 + 1
        sig = hm ** KEY_SHARES[a]
        ya, yb = g2 ** KEY_SHARES[a], g2 ** KEY_SHARES[b]
        yield [
            [(sig, g2), (hm.inverse(), ya)],  # valid share
            [(sig, g2), (hm.inverse(), g2 ** (KEY_SHARES[a] + 1))],  # wrong key
            # wrong message
            [(sig, g2), (ctx.g1.hash_to_element(m + b"!").inverse(), ya)],
            [(sig, g2), (hm.inverse(), yb)],  # swapped share id
            [(inf1, g2), (hm.inverse(), ya)],  # infinity hides the signature side
            [(sig, inf2), (inf1, ya)],  # every pair has an infinity member
            # aggregate of two shares
            [(sig, g2), (hm ** KEY_SHARES[b], g2), (hm.inverse(), ya * yb)],
            [(sig, g2), (hm.inverse(), ya), (hm, inf2)],  # valid plus a skipped pair
        ][i % 8]


class TestGoldenVectors:
    def test_generator_pairing(self, ctx):
        _, e = ctx
        assert _sha(e.to_bytes()) == GOLDEN_PAIR_GENERATORS

    def test_seeded_pairings(self, ctx):
        bilinear, _ = ctx
        g1, g2 = bilinear.g1.generator(), bilinear.g2.generator()
        rng = random.Random(254)
        for expected in GOLDEN_PAIR_SEEDED:
            a, b = rng.randrange(1, R), rng.randrange(1, R)
            assert _sha(bilinear.pair(g1**a, g2**b).to_bytes()) == expected

    def test_g2_hash_to_element(self, ctx):
        bilinear, _ = ctx
        hashed = bilinear.g2.hash_to_element(b"golden g2")
        assert _sha(hashed.to_bytes()) == GOLDEN_G2_HASH

    def test_bls04_signature(self, ctx):
        bilinear, _ = ctx
        scheme = bls04.Bls04SignatureScheme()
        public = _fixed_public(bls04.Bls04PublicKey, bilinear)
        old = bls04.Bls04Signature.from_bytes(GOLDEN_BLS04_SIGNATURE)
        scheme.verify(public, GOLDEN_MESSAGE, old)
        old_share = bls04.Bls04SignatureShare.from_bytes(GOLDEN_BLS04_SHARE_2)
        scheme.verify_signature_share(public, GOLDEN_MESSAGE, old_share)
        # ... and signing today reproduces the same bytes.
        keys = [bls04.Bls04KeyShare(i, KEY_SHARES[i], public) for i in (2, 4)]
        shares = [scheme.partial_sign(key, GOLDEN_MESSAGE) for key in keys]
        assert shares[0].to_bytes() == GOLDEN_BLS04_SHARE_2
        combined = scheme.combine(public, GOLDEN_MESSAGE, shares)
        assert combined.to_bytes() == GOLDEN_BLS04_SIGNATURE

    def test_bz03_mask_and_ciphertext(self, ctx):
        bilinear, _ = ctx
        cipher = bz03.Bz03Cipher()
        public = _fixed_public(bz03.Bz03PublicKey, bilinear)
        ct = bz03.Bz03Ciphertext.from_bytes(GOLDEN_BZ03_CIPHERTEXT)
        assert ct.u == bilinear.g2.generator() ** BZ03_R
        h_hat = bz03._h1(ct.label, ct.u)
        mask = bz03._kdf(bilinear.pair(h_hat**BZ03_R, public.y))
        assert mask.hex() == GOLDEN_BZ03_MASK
        keys = [bz03.Bz03KeyShare(i, KEY_SHARES[i], public) for i in (1, 3)]
        shares = [cipher.create_decryption_share(key, ct) for key in keys]
        assert cipher.combine(public, ct, shares) == b"golden plaintext"

    def test_pairing_check_accept_reject_table(self, ctx):
        bilinear, _ = ctx
        answers = ["1" if pairing_check(c) else "0" for c in _check_cases(bilinear)]
        assert "".join(answers) == GOLDEN_CHECK_TABLE


class TestDegenerateInputs:
    """Every degenerate input ends in CryptoError, never ZeroDivisionError/ValueError.

    A chord with H = 0 needs T = ±Q at an addition step, i.e. ord(Q) dividing
    2k ± 1 for a prefix k of the signed loop (the addend's sign does not
    matter); no element order of E′(Fp2) does, so on-twist points reach it
    only by calling the step directly.  The element constructor does not
    validate, though, and an off-curve order-3 "point" walks into it through
    ``pairing_check``, as a G1 "point" with y = 0 walks into 1/y_P.
    """

    @staticmethod
    def _off_subgroup_point(g2):
        x = 1
        while True:
            x += 1
            y2 = Fp2(x, 0) ** 3 + B2
            if y2.is_square():
                point = g2._from_affine((x, 0) + y2.sqrt().v)
                if not point._mul_raw(R).infinity:
                    return point

    def test_chord_through_equal_or_opposite_points(self, ctx):
        bilinear, _ = ctx
        point = self._off_subgroup_point(bilinear.g2)
        for q in (point, point.inverse()):
            with pytest.raises(CryptoError):
                _add_step(point._point, q.affine())

    def test_signed_loop_prefixes_meet_no_element_order(self):
        # T = [k]Q before each doubling, [2k]Q before the addition of ±Q
        # that follows a nonzero digit; #E′(Fp2) = r·(2p − r), 10069 | 2p − r.
        order = R * G2_COFACTOR
        assert G2_COFACTOR % 10069 == 0
        k, additions = 1, 0
        for digit in _LOOP_NAF:
            assert gcd(k, order) == 1
            if digit:
                additions += 1
                for m in (2 * k - 1, 2 * k + 1):
                    assert m % R and m % 10069 and gcd(m, order) == 1
            k = 2 * k + digit
        assert k == ATE_LOOP_COUNT and additions == 21

    def test_small_order_twist_points_give_an_answer(self, ctx):
        bilinear, _ = ctx
        point = self._off_subgroup_point(bilinear.g2)
        small = point._mul_raw(R * (G2_COFACTOR // 10069))  # 10069 | 2p − r
        assert not small.infinity and small._mul_raw(10069).infinity
        assert pairing_check([(bilinear.g1.generator(), small)]) is False

    def test_order_three_off_curve_point(self, ctx):
        # (3, 9/2) doubles to its own negative under the a = 0 formulas, so
        # the first addition step of the loop meets T = ±Q.
        bilinear, _ = ctx
        half = pow(2, -1, P)
        rogue = BN254G2Element(bilinear.g2, Fp2(3, 0), Fp2(9 * half, 0))
        with pytest.raises(CryptoError):
            pairing_check([(bilinear.g1.generator(), rogue)])
        with pytest.raises(CryptoError):
            bilinear.pair(bilinear.g1.generator(), rogue)

    def test_vertical_tangent(self, ctx):
        bilinear, _ = ctx
        rogue = BN254G2Element(bilinear.g2, Fp2(5, 0), Fp2.zero())
        with pytest.raises(CryptoError):
            pairing_check([(bilinear.g1.generator(), rogue)])

    def test_g1_point_with_y_zero(self, ctx):
        bilinear, _ = ctx
        for z in (1, 7):  # affine, and Jacobian (X, 0, Z)
            rogue = BN254G1Element(bilinear.g1, (5 * z * z % P, 0, z))
            with pytest.raises(CryptoError):
                pairing_check([(rogue, bilinear.g2.generator())])
            with pytest.raises(CryptoError):
                bilinear.pair(rogue, bilinear.g2.generator())

    def test_zero_line_coefficient_reaching_the_batched_inversion(self):
        line, normalized = (FP2_ONE, (2, 3), (4, 5)), (2, 3, 4, 5)
        assert _normalize([(line,), (line, line)]) == [(normalized,), (normalized,) * 2]
        with pytest.raises(CryptoError):
            _normalize([(line,), (line, (FP2_ZERO, (2, 3), (4, 5)))])

    def test_zero_miller_value(self):
        with pytest.raises(CryptoError):
            _final_exponentiation(Fp12.zero())

    def test_pair_check_resolves_module_global(self, ctx, monkeypatch):
        # thetabench wraps repro.groups.bn254.pairing.pairing_check from outside.
        module = importlib.import_module("repro.groups.bn254.pairing")
        bilinear, _ = ctx
        calls = []
        monkeypatch.setattr(
            module, "pairing_check", lambda pairs: calls.append(pairs) or True
        )
        assert bilinear.pair_check([("p", "q")]) and calls == [[("p", "q")]]
