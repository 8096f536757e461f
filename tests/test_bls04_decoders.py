"""Hostile inputs for the BLS04 decoders.

A signature share comes from a peer, a signature from a client and a public
key from a keystore or an RPC reply: each decoder must hand back a
well-formed object or raise :class:`SerializationError`, never another
exception.  The public-key decoder also refuses an identity ``y`` or
``y_i`` (the KeyValidate rule of the IETF BLS draft): under such a key
both pairs of the verification equation have an infinity member, the
pairing skips them, and the identity signature verifies for every message.
The tables are frozen (a row that changes sides is a behaviour change to be
argued); the property throws truncations, bit flips and random bytes at
every decoder.  Same shape as ``tests/test_coin_frost_decoders.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.groups.bn254 import bn254_pairing
from repro.schemes.bls04 import (
    Bls04PublicKey,
    Bls04Signature,
    Bls04SignatureScheme,
    Bls04SignatureShare,
)
from tests.test_cipher_decoders import (
    G1_GEN,
    G1_IDENTITY,
    G1_OFF_CURVE,
    G1_X_TOO_BIG,
    G2_GEN,
    G2_IDENTITY,
    G2_OFF_TWIST,
    _b,
)
from tests.test_coin_frost_decoders import G2_OFF_SUBGROUP
from tests.test_scheme_sh00 import _ints, _mutants

_DECODERS = {
    "public key": Bls04PublicKey,
    "share": Bls04SignatureShare,
    "signature": Bls04Signature,
}

#: (decoder, case, bytes, decoded fields or None for SerializationError).
_DECODE_TABLE = [
    ("public key", "one party", _ints(0, 1) + _b(G2_GEN, G2_GEN),
     (0, 1, G2_GEN, (G2_GEN,))),
    ("public key", "two parties", _ints(1, 2) + _b(G2_GEN, G2_GEN, G2_GEN),
     (1, 2, G2_GEN, (G2_GEN, G2_GEN))),
    ("public key", "identity y", _ints(0, 1) + _b(G2_IDENTITY, G2_GEN), None),
    ("public key", "identity y_i", _ints(0, 1) + _b(G2_GEN, G2_IDENTITY), None),
    ("public key", "second y_i identity",
     _ints(1, 2) + _b(G2_GEN, G2_GEN, G2_IDENTITY), None),
    ("public key", "y off the twist", _ints(0, 1) + _b(G2_OFF_TWIST, G2_GEN), None),
    ("public key", "y_i off the twist", _ints(0, 1) + _b(G2_GEN, G2_OFF_TWIST),
     None),
    ("public key", "y outside the subgroup",
     _ints(0, 1) + _b(G2_OFF_SUBGROUP, G2_GEN), None),
    ("public key", "y_i outside the subgroup",
     _ints(0, 1) + _b(G2_GEN, G2_OFF_SUBGROUP), None),
    ("public key", "y coordinate >= p", _ints(0, 1) + _b(b"\xff" * 128, G2_GEN),
     None),
    ("public key", "y of 127 bytes", _ints(0, 1) + _b(G2_GEN[:127], G2_GEN), None),
    ("public key", "G1 element as y", _ints(0, 1) + _b(G1_GEN, G2_GEN), None),
    ("public key", "two parties, one key", _ints(1, 2) + _b(G2_GEN, G2_GEN), None),
    ("public key", "2^32 parties, no keys", _ints(1, 2**32) + _b(G2_GEN), None),
    ("public key", "trailing byte", _ints(0, 1) + _b(G2_GEN, G2_GEN) + b"\x00",
     None),
    ("share", "well formed", _ints(2) + _b(G1_GEN), (2, G1_GEN)),
    ("share", "identity sigma", _ints(2) + _b(G1_IDENTITY), (2, G1_IDENTITY)),
    ("share", "sigma off the curve", _ints(2) + _b(G1_OFF_CURVE), None),
    ("share", "sigma x >= p", _ints(2) + _b(G1_X_TOO_BIG), None),
    ("share", "G2 element as sigma", _ints(2) + _b(G2_GEN), None),
    ("share", "sigma missing", _ints(2), None),
    ("share", "non-minimal id", b"\x00\x00\x00\x02\x00\x02" + _b(G1_GEN), None),
    ("share", "trailing byte", _ints(2) + _b(G1_GEN) + b"\x00", None),
    ("signature", "well formed", _b(G1_GEN), (G1_GEN,)),
    ("signature", "identity sigma", _b(G1_IDENTITY), (G1_IDENTITY,)),
    ("signature", "empty", b"", None),
    ("signature", "sigma off the curve", _b(G1_OFF_CURVE), None),
    ("signature", "sigma x >= p", _b(G1_X_TOO_BIG), None),
    ("signature", "sigma of 63 bytes", _b(G1_GEN[:63]), None),
    ("signature", "trailing byte", _b(G1_GEN) + b"\x00", None),
]


def _fields(decoded) -> tuple:
    if isinstance(decoded, Bls04PublicKey):
        return (
            decoded.threshold, decoded.parties, decoded.y.to_bytes(),
            tuple(v.to_bytes() for v in decoded.verification_keys),
        )
    if isinstance(decoded, Bls04SignatureShare):
        return (decoded.id, decoded.sigma.to_bytes())
    return (decoded.sigma.to_bytes(),)


@pytest.fixture(scope="module")
def encodings(keys_bls04):
    scheme = Bls04SignatureScheme()
    shares = [scheme.partial_sign(k, b"hostile") for k in keys_bls04.key_shares[:2]]
    return {
        "public key": keys_bls04.public_key.to_bytes(),
        "share": shares[0].to_bytes(),
        "signature": scheme.combine(
            keys_bls04.public_key, b"hostile", shares
        ).to_bytes(),
    }


class TestHostileBls04Decoders:
    @pytest.mark.parametrize(
        "decoder,data,expected",
        [(row[0], row[2], row[3]) for row in _DECODE_TABLE],
        ids=[f"{row[0]}: {row[1]}" for row in _DECODE_TABLE],
    )
    def test_accept_reject_table(self, decoder, data, expected):
        cls = _DECODERS[decoder]
        if expected is None:
            with pytest.raises(SerializationError):
                cls.from_bytes(data)
        else:
            assert _fields(cls.from_bytes(data)) == expected

    def test_well_formed_encodings_round_trip(self, encodings):
        for decoder, data in encodings.items():
            assert _DECODERS[decoder].from_bytes(data).to_bytes() == data

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutants_decode_or_raise_serialization_error(self, encodings, data):
        decoder = data.draw(st.sampled_from(sorted(_DECODERS)))
        mutant = data.draw(_mutants(encodings[decoder]))
        cls = _DECODERS[decoder]
        try:
            decoded = cls.from_bytes(mutant)
        except SerializationError:
            return
        assert isinstance(decoded, cls)


class TestIdentityKeys:
    """What the decoder's identity rows keep out: built by the constructor,
    which does not validate, an identity key accepts the identity signature
    (or share) for any message."""

    def test_identity_y_accepts_the_identity_signature_until_decoded(self):
        bilinear = bn254_pairing()
        weak = Bls04PublicKey(
            0, 1, bilinear.g2.identity(), (bilinear.g2.generator(),)
        )
        forged = Bls04Signature(bilinear.g1.identity())
        for message in (b"pay mallory", b"anything else"):
            Bls04SignatureScheme().verify(weak, message, forged)
        with pytest.raises(SerializationError):
            Bls04PublicKey.from_bytes(weak.to_bytes())

    def test_identity_y_i_accepts_the_identity_share_until_decoded(self):
        bilinear = bn254_pairing()
        g2 = bilinear.g2.generator()
        weak = Bls04PublicKey(1, 2, g2, (bilinear.g2.identity(), g2))
        forged = Bls04SignatureShare(1, bilinear.g1.identity())
        Bls04SignatureScheme().verify_signature_share(weak, b"any message", forged)
        with pytest.raises(SerializationError):
            Bls04PublicKey.from_bytes(weak.to_bytes())
