"""Hostile inputs for the decoders a threshold decryption reads.

A decrypt request's ciphertext comes from a client, a decryption share
from a peer, and a public key from a keystore or an RPC reply: each
decoder must hand back a well-formed object or raise
:class:`SerializationError`, never another exception.  The tables are
frozen (a row that changes sides is a behaviour change to be argued);
the properties throw truncations, bit flips and random bytes at every
decoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.schemes import bz03, sg02
from repro.schemes.bz03 import Bz03Ciphertext, Bz03DecryptionShare
from repro.schemes.sg02 import Sg02Ciphertext, Sg02DecryptionShare, Sg02PublicKey
from tests.test_scheme_sh00 import _ints, _mutants


def _b(*chunks: bytes) -> bytes:
    """Byte-string fields as the wire carries them (4-byte length prefix),
    written out independently of ``repro.serialization``."""
    return b"".join(len(c).to_bytes(4, "big") + c for c in chunks)


def _s(name: str) -> bytes:
    return _b(name.encode())


# Group elements, spelled out so the rows stay frozen.
ED_BASE = bytes.fromhex("58" + "66" * 31)
ED_IDENTITY = bytes.fromhex("01" + "00" * 31)
ED_ORDER_FOUR = bytes(32)  # y = 0: on the curve, outside the prime-order group
ED_OFF_CURVE = (2).to_bytes(32, "little")
ED_Y_TOO_BIG = b"\xff" * 31 + b"\x7f"
G1_GEN = (1).to_bytes(32, "big") + (2).to_bytes(32, "big")
G1_IDENTITY = bytes(64)
G1_OFF_CURVE = (1).to_bytes(32, "big") + (3).to_bytes(32, "big")
G1_X_TOO_BIG = b"\xff" * 32 + (2).to_bytes(32, "big")
G2_GEN = bytes.fromhex(
    "1800deef121f1e76426a00665e5c4479674322d4f75edadd46debd5cd992f6ed"
    "198e9393920d483a7260bfb731fb5d25f1aa493335a9e71297e485b7aef312c2"
    "12c85ea5db8c6deb4aab71808dcb408fe3d1e7690c43d37b4ce6cc0166fa7daa"
    "090689d0585ff075ec9e99ad690c3395bc4b313370b38ef355acdadcd122975b"
)
G2_IDENTITY = bytes(128)
G2_OFF_TWIST = (1).to_bytes(32, "big") + bytes(64) + (1).to_bytes(32, "big")
#: The SEC1 compressed secp256k1 generator: a curve this library does not ship.
SECP256K1_GEN = bytes.fromhex(
    "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
)


def _sg02_ct(u=ED_BASE, u_bar=ED_IDENTITY, e=_ints(1), tail=b"") -> bytes:
    return (
        _b(b"label", b"k" * 32, u, u_bar) + e + _ints(2) + _b(b"n" * 12, b"payload")
        + tail
    )


def _bz03_ct(u=G2_GEN, w=G1_GEN, tail=b"") -> bytes:
    return _b(b"label", u, b"k" * 32, w, b"n" * 12, b"payload") + tail


_SG02_CT_FIELDS = (
    b"label", b"k" * 32, ED_BASE, ED_IDENTITY, 1, 2, b"n" * 12, b"payload"
)
_BZ03_CT_FIELDS = (b"label", G2_GEN, b"k" * 32, G1_GEN, b"n" * 12, b"payload")

_DECODERS = {
    "sg02 ciphertext": lambda data: Sg02Ciphertext.from_bytes(data, _ED25519),
    "sg02 share": lambda data: Sg02DecryptionShare.from_bytes(data, _ED25519),
    "sg02 public key": Sg02PublicKey.from_bytes,
    "bz03 ciphertext": Bz03Ciphertext.from_bytes,
    "bz03 share": Bz03DecryptionShare.from_bytes,
}
_TYPES = {
    "sg02 ciphertext": Sg02Ciphertext,
    "sg02 share": Sg02DecryptionShare,
    "sg02 public key": Sg02PublicKey,
    "bz03 ciphertext": Bz03Ciphertext,
    "bz03 share": Bz03DecryptionShare,
}

#: (decoder, case, bytes, decoded fields or None for SerializationError).
_DECODE_TABLE = [
    ("sg02 ciphertext", "well formed", _sg02_ct(), _SG02_CT_FIELDS),
    ("sg02 ciphertext", "empty", b"", None),
    ("sg02 ciphertext", "payload missing", _sg02_ct()[:-11], None),
    ("sg02 ciphertext", "trailing byte", _sg02_ct(tail=b"\x00"), None),
    ("sg02 ciphertext", "u of 31 bytes", _sg02_ct(u=ED_BASE[:31]), None),
    ("sg02 ciphertext", "u off the curve", _sg02_ct(u=ED_OFF_CURVE), None),
    ("sg02 ciphertext", "u of order four", _sg02_ct(u=ED_ORDER_FOUR), None),
    ("sg02 ciphertext", "u_bar y >= p", _sg02_ct(u_bar=ED_Y_TOO_BIG), None),
    ("sg02 ciphertext", "non-minimal e", _sg02_ct(e=b"\x00\x00\x00\x02\x00\x01"),
     None),
    ("sg02 share", "well formed", _ints(3) + _b(ED_BASE) + _ints(4, 5),
     (3, ED_BASE, 4, 5)),
    ("sg02 share", "identity u_i", _ints(3) + _b(ED_IDENTITY) + _ints(4, 5),
     (3, ED_IDENTITY, 4, 5)),
    ("sg02 share", "proof response missing", _ints(3) + _b(ED_BASE) + _ints(4),
     None),
    ("sg02 share", "u_i of order four", _ints(3) + _b(ED_ORDER_FOUR) + _ints(4, 5),
     None),
    ("sg02 share", "trailing byte", _ints(3) + _b(ED_BASE) + _ints(4, 5) + b"\x00",
     None),
    ("sg02 share", "non-minimal id",
     b"\x00\x00\x00\x02\x00\x03" + _b(ED_BASE) + _ints(4, 5), None),
    ("sg02 public key", "one party",
     _s("ed25519") + _ints(0, 1) + _b(ED_BASE, ED_IDENTITY),
     ("ed25519", 0, 1, ED_BASE, (ED_IDENTITY,))),
    ("sg02 public key", "two parties, one key",
     _s("ed25519") + _ints(1, 2) + _b(ED_BASE, ED_BASE), None),
    ("sg02 public key", "one party, two keys",
     _s("ed25519") + _ints(0, 1) + _b(ED_BASE, ED_BASE, ED_BASE), None),
    ("sg02 public key", "2^32 parties, no keys",
     _s("ed25519") + _ints(1, 2**32) + _b(ED_BASE), None),
    ("sg02 public key", "group name not UTF-8",
     _b(b"\xff") + _ints(0, 1) + _b(ED_BASE, ED_BASE), None),
    ("sg02 public key", "unknown group",
     _s("ed25518") + _ints(0, 1) + _b(ED_BASE, ED_BASE), None),
    ("sg02 public key", "secp256k1 is unknown",
     _s("secp256k1") + _ints(0, 1) + _b(SECP256K1_GEN, SECP256K1_GEN), None),
    ("sg02 public key", "h off the curve",
     _s("ed25519") + _ints(0, 1) + _b(ED_OFF_CURVE, ED_BASE), None),
    ("bz03 ciphertext", "well formed", _bz03_ct(), _BZ03_CT_FIELDS),
    ("bz03 ciphertext", "empty", b"", None),
    ("bz03 ciphertext", "trailing byte", _bz03_ct(tail=b"\x00"), None),
    ("bz03 ciphertext", "identity u and w", _bz03_ct(u=G2_IDENTITY, w=G1_IDENTITY),
     (b"label", G2_IDENTITY, b"k" * 32, G1_IDENTITY, b"n" * 12, b"payload")),
    ("bz03 ciphertext", "u off the twist", _bz03_ct(u=G2_OFF_TWIST), None),
    ("bz03 ciphertext", "u coordinate >= p", _bz03_ct(u=b"\xff" * 128), None),
    ("bz03 ciphertext", "u of 127 bytes", _bz03_ct(u=G2_GEN[:127]), None),
    ("bz03 ciphertext", "w off the curve", _bz03_ct(w=G1_OFF_CURVE), None),
    ("bz03 share", "well formed", _ints(2) + _b(G1_GEN), (2, G1_GEN)),
    ("bz03 share", "delta x >= p", _ints(2) + _b(G1_X_TOO_BIG), None),
    ("bz03 share", "delta off the curve", _ints(2) + _b(G1_OFF_CURVE), None),
    ("bz03 share", "delta missing", _ints(2), None),
    ("bz03 share", "trailing byte", _ints(2) + _b(G1_GEN) + b"\x00", None),
]

_ED25519 = sg02.get_group("ed25519")


def _fields(decoded) -> tuple:
    if isinstance(decoded, Sg02Ciphertext):
        return (
            decoded.label, decoded.masked_key, decoded.u.to_bytes(),
            decoded.u_bar.to_bytes(), decoded.e, decoded.f, decoded.nonce,
            decoded.payload,
        )
    if isinstance(decoded, Sg02DecryptionShare):
        return (
            decoded.id, decoded.u_i.to_bytes(), decoded.proof.challenge,
            decoded.proof.response,
        )
    if isinstance(decoded, Sg02PublicKey):
        return (
            decoded.group_name, decoded.threshold, decoded.parties,
            decoded.h.to_bytes(),
            tuple(v.to_bytes() for v in decoded.verification_keys),
        )
    if isinstance(decoded, Bz03Ciphertext):
        return (
            decoded.label, decoded.u.to_bytes(), decoded.masked_key,
            decoded.w.to_bytes(), decoded.nonce, decoded.payload,
        )
    return (decoded.id, decoded.delta.to_bytes())


@pytest.fixture(scope="module")
def encodings(keys_sg02, keys_bz03):
    sg02_cipher, bz03_cipher = sg02.Sg02Cipher(), bz03.Bz03Cipher()
    sg02_ct = sg02_cipher.encrypt(keys_sg02.public_key, b"hostile", b"l")
    bz03_ct = bz03_cipher.encrypt(keys_bz03.public_key, b"hostile", b"l")
    return {
        "sg02 ciphertext": sg02_ct.to_bytes(),
        "sg02 share": sg02_cipher.create_decryption_share(
            keys_sg02.key_shares[0], sg02_ct
        ).to_bytes(),
        "sg02 public key": keys_sg02.public_key.to_bytes(),
        "bz03 ciphertext": bz03_ct.to_bytes(),
        "bz03 share": bz03_cipher.create_decryption_share(
            keys_bz03.key_shares[0], bz03_ct
        ).to_bytes(),
    }


class TestHostileCipherDecoders:
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
            assert _fields(_DECODERS[decoder](data)) == expected

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
