"""Hostile inputs for the CKS05, KG20 and BZ03 public-key decoders.

A coin share and every FROST round message come from a peer, a public key
from a keystore or an RPC reply: each decoder must hand back a well-formed
object or raise :class:`SerializationError`, never another exception (an
unknown group name used to escape the public-key decoders as
``ConfigurationError``).  The tables are frozen (a row that changes sides
is a behaviour change to be argued); the property throws truncations, bit
flips and random bytes at every decoder.  Same shape as
``tests/test_cipher_decoders.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.groups import get_group
from repro.schemes.bz03 import Bz03PublicKey
from repro.schemes.cks05 import Cks05Coin, Cks05CoinShare, Cks05PublicKey
from repro.schemes.kg20 import (
    Kg20PublicKey,
    Kg20Signature,
    Kg20SignatureScheme,
    Kg20SignatureShare,
    NonceCommitment,
)
from tests.test_cipher_decoders import (
    ED_BASE,
    ED_IDENTITY,
    ED_OFF_CURVE,
    ED_ORDER_FOUR,
    ED_Y_TOO_BIG,
    G1_GEN,
    G1_IDENTITY,
    G2_GEN,
    G2_IDENTITY,
    G2_OFF_TWIST,
    SECP256K1_GEN,
    _b,
    _s,
)
from tests.test_scheme_sh00 import _ints, _mutants

#: On the twist, outside the order-r subgroup: x = 2 + 0·i, y = √(x³ + b′).
G2_OFF_SUBGROUP = bytes.fromhex(
    "0000000000000000000000000000000000000000000000000000000000000002"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "184e49a28b311fe99c47905f002cd6085959e8398ef0c9bba8807a52b0fab5fa"
    "2b722ed547657a33238122b710a54d992e52f01f4cff6cc8e77e74268cacbf14"
)

_ED25519 = get_group("ed25519")

_DECODERS = {
    "cks05 public key": Cks05PublicKey.from_bytes,
    "cks05 coin share": lambda data: Cks05CoinShare.from_bytes(data, _ED25519),
    "kg20 public key": Kg20PublicKey.from_bytes,
    "kg20 commitment": lambda data: NonceCommitment.from_bytes(data, _ED25519),
    "kg20 share": Kg20SignatureShare.from_bytes,
    "kg20 signature": lambda data: Kg20Signature.from_bytes(data, _ED25519),
    "bz03 public key": Bz03PublicKey.from_bytes,
}
_TYPES = {
    "cks05 public key": Cks05PublicKey,
    "cks05 coin share": Cks05CoinShare,
    "kg20 public key": Kg20PublicKey,
    "kg20 commitment": NonceCommitment,
    "kg20 share": Kg20SignatureShare,
    "kg20 signature": Kg20Signature,
    "bz03 public key": Bz03PublicKey,
}


def _dl_key_fields(key) -> tuple:
    return (
        key.group_name, key.threshold, key.parties,
        (key.h if isinstance(key, Cks05PublicKey) else key.y).to_bytes(),
        tuple(v.to_bytes() for v in key.verification_keys),
    )


_FIELDS = {
    "cks05 public key": _dl_key_fields,
    "cks05 coin share": lambda s: (
        s.id, s.sigma.to_bytes(), s.proof.challenge, s.proof.response
    ),
    "kg20 public key": _dl_key_fields,
    "kg20 commitment": lambda c: (c.id, c.big_d.to_bytes(), c.big_e.to_bytes()),
    "kg20 share": lambda s: (s.id, s.z),
    "kg20 signature": lambda s: (s.r.to_bytes(), s.z),
    "bz03 public key": lambda k: (
        k.threshold, k.parties, k.y.to_bytes(),
        tuple(v.to_bytes() for v in k.verification_keys),
    ),
}


def _dl_key_rows(decoder: str) -> list:
    """CKS05 and KG20 public keys share one layout, so they share rows."""
    return [
        (decoder, "one party", _s("ed25519") + _ints(0, 1) + _b(ED_BASE, ED_IDENTITY),
         ("ed25519", 0, 1, ED_BASE, (ED_IDENTITY,))),
        (decoder, "on bn254g1", _s("bn254g1") + _ints(0, 1) + _b(G1_GEN, G1_IDENTITY),
         ("bn254g1", 0, 1, G1_GEN, (G1_IDENTITY,))),
        (decoder, "unknown group",
         _s("nope") + _ints(0, 1) + _b(ED_BASE, ED_BASE), None),
        (decoder, "secp256k1 is unknown",
         _s("secp256k1") + _ints(0, 1) + _b(SECP256K1_GEN, SECP256K1_GEN), None),
        (decoder, "group name not UTF-8",
         _b(b"\xff") + _ints(0, 1) + _b(ED_BASE, ED_BASE), None),
        (decoder, "ed25519 name, G1 element",
         _s("ed25519") + _ints(0, 1) + _b(G1_GEN, ED_BASE), None),
        (decoder, "key of order four",
         _s("ed25519") + _ints(0, 1) + _b(ED_BASE, ED_ORDER_FOUR), None),
        (decoder, "two parties, one key",
         _s("ed25519") + _ints(1, 2) + _b(ED_BASE, ED_BASE), None),
        (decoder, "2^32 parties, no keys",
         _s("ed25519") + _ints(1, 2**32) + _b(ED_BASE), None),
        (decoder, "trailing byte",
         _s("ed25519") + _ints(0, 1) + _b(ED_BASE, ED_BASE) + b"\x00", None),
    ]


#: (decoder, case, bytes, decoded fields or None for SerializationError).
_DECODE_TABLE = _dl_key_rows("cks05 public key") + [
    ("cks05 coin share", "well formed", _ints(3) + _b(ED_BASE) + _ints(4, 5),
     (3, ED_BASE, 4, 5)),
    ("cks05 coin share", "identity sigma", _ints(3) + _b(ED_IDENTITY) + _ints(4, 5),
     (3, ED_IDENTITY, 4, 5)),
    ("cks05 coin share", "sigma off the curve",
     _ints(3) + _b(ED_OFF_CURVE) + _ints(4, 5), None),
    ("cks05 coin share", "sigma of order four",
     _ints(3) + _b(ED_ORDER_FOUR) + _ints(4, 5), None),
    ("cks05 coin share", "proof response missing", _ints(3) + _b(ED_BASE) + _ints(4),
     None),
    ("cks05 coin share", "non-minimal challenge",
     _ints(3) + _b(ED_BASE) + b"\x00\x00\x00\x02\x00\x04" + _ints(5), None),
    ("cks05 coin share", "trailing byte",
     _ints(3) + _b(ED_BASE) + _ints(4, 5) + b"\x00", None),
] + _dl_key_rows("kg20 public key") + [
    ("kg20 commitment", "well formed", _ints(2) + _b(ED_BASE, ED_IDENTITY),
     (2, ED_BASE, ED_IDENTITY)),
    ("kg20 commitment", "E missing", _ints(2) + _b(ED_BASE), None),
    ("kg20 commitment", "D y >= p", _ints(2) + _b(ED_Y_TOO_BIG, ED_BASE), None),
    ("kg20 commitment", "E of order four", _ints(2) + _b(ED_BASE, ED_ORDER_FOUR),
     None),
    ("kg20 commitment", "trailing byte",
     _ints(2) + _b(ED_BASE, ED_BASE) + b"\x00", None),
    ("kg20 share", "well formed", _ints(2, 7), (2, 7)),
    ("kg20 share", "zero-length id reads as no integer",
     b"\x00\x00\x00\x00" + _ints(7), None),
    ("kg20 share", "z missing", _ints(2), None),
    ("kg20 share", "non-minimal z", _ints(2) + b"\x00\x00\x00\x02\x00\x07", None),
    ("kg20 share", "trailing byte", _ints(2, 7) + b"\x00", None),
    ("kg20 signature", "well formed", _b(ED_BASE) + _ints(9), (ED_BASE, 9)),
    ("kg20 signature", "R off the curve", _b(ED_OFF_CURVE) + _ints(9), None),
    ("kg20 signature", "R of 33 bytes", _b(ED_BASE + b"\x00") + _ints(9), None),
    ("kg20 signature", "z missing", _b(ED_BASE), None),
    ("kg20 signature", "trailing byte", _b(ED_BASE) + _ints(9) + b"\x00", None),
    ("bz03 public key", "one party", _ints(0, 1) + _b(G2_GEN, G2_IDENTITY),
     (0, 1, G2_GEN, (G2_IDENTITY,))),
    ("bz03 public key", "y off the twist", _ints(0, 1) + _b(G2_OFF_TWIST, G2_GEN),
     None),
    ("bz03 public key", "key outside the subgroup",
     _ints(0, 1) + _b(G2_GEN, G2_OFF_SUBGROUP), None),
    ("bz03 public key", "y coordinate >= p", _ints(0, 1) + _b(b"\xff" * 128, G2_GEN),
     None),
    ("bz03 public key", "y of 127 bytes", _ints(0, 1) + _b(G2_GEN[:127], G2_GEN),
     None),
    ("bz03 public key", "two parties, one key", _ints(1, 2) + _b(G2_GEN, G2_GEN),
     None),
    ("bz03 public key", "trailing byte",
     _ints(0, 1) + _b(G2_GEN, G2_GEN) + b"\x00", None),
]


@pytest.fixture(scope="module")
def encodings(keys_cks05, keys_kg20, keys_bz03):
    name = b"hostile coin"
    frost = Kg20SignatureScheme()
    signers = keys_kg20.key_shares[:2]
    rounds = [frost.commit(share) for share in signers]
    commitments = [commitment for _, commitment in rounds]
    shares = [
        frost.sign_round(share, b"hostile", nonce, commitments)
        for share, (nonce, _) in zip(signers, rounds)
    ]
    signature = frost.combine(keys_kg20.public_key, b"hostile", shares, commitments)
    return {
        "cks05 public key": keys_cks05.public_key.to_bytes(),
        "cks05 coin share": Cks05Coin().create_coin_share(
            keys_cks05.key_shares[0], name
        ).to_bytes(),
        "kg20 public key": keys_kg20.public_key.to_bytes(),
        "kg20 commitment": commitments[0].to_bytes(),
        "kg20 share": shares[0].to_bytes(),
        "kg20 signature": signature.to_bytes(),
        "bz03 public key": keys_bz03.public_key.to_bytes(),
    }


class TestHostileCoinFrostDecoders:
    @pytest.mark.parametrize(
        "decoder,data,expected",
        [(row[0], row[2], row[3]) for row in _DECODE_TABLE],
        ids=[f"{row[0]}: {row[1]}" for row in _DECODE_TABLE],
    )
    def test_accept_reject_table(self, decoder, data, expected):
        if expected is None:
            with pytest.raises(SerializationError):
                _DECODERS[decoder](data)
        else:
            assert _FIELDS[decoder](_DECODERS[decoder](data)) == expected

    def test_well_formed_encodings_round_trip(self, encodings):
        for decoder, data in encodings.items():
            assert _DECODERS[decoder](data).to_bytes() == data

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutants_decode_or_raise_serialization_error(self, encodings, data):
        decoder = data.draw(st.sampled_from(sorted(_DECODERS)))
        mutant = data.draw(_mutants(encodings[decoder]))
        try:
            decoded = _DECODERS[decoder](mutant)
        except SerializationError:
            return
        assert isinstance(decoded, _TYPES[decoder])
