"""SH00 (Shoup threshold RSA): robust signing with integer ZKPs."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import (
    InvalidShareError,
    InvalidSignatureError,
    SerializationError,
    ThetacryptError,
    ThresholdNotReachedError,
)
from repro.schemes import sh00
from repro.schemes.sh00 import (
    Sh00PublicKey,
    Sh00Signature,
    Sh00SignatureScheme,
    Sh00SignatureShare,
    _full_domain_hash,
)


@pytest.fixture(scope="module")
def scheme():
    return Sh00SignatureScheme()


@pytest.fixture(scope="module")
def material(small_modulus):
    return sh00.keygen(2, 5, modulus=small_modulus)


class TestHappyPath:
    def test_sign_verify(self, scheme, material):
        public, shares = material
        msg = b"sign me"
        partials = [scheme.partial_sign(shares[i], msg) for i in (0, 2, 4)]
        for p in partials:
            scheme.verify_signature_share(public, msg, p)
        signature = scheme.combine(public, msg, partials)
        scheme.verify(public, msg, signature)

    def test_signature_is_plain_rsa(self, scheme, material):
        # y^e == H(m)² mod n: verifiable with no threshold machinery at all.
        public, shares = material
        msg = b"plain rsa"
        partials = [scheme.partial_sign(shares[i], msg) for i in (0, 1, 2)]
        signature = scheme.combine(public, msg, partials)
        x = _full_domain_hash(msg, public.n)
        assert pow(signature.value, public.e, public.n) == x

    def test_any_quorum(self, scheme, material):
        public, shares = material
        msg = b"quorums"
        for ids in ((0, 1, 2), (2, 3, 4), (0, 2, 4)):
            partials = [scheme.partial_sign(shares[i], msg) for i in ids]
            scheme.verify(public, msg, scheme.combine(public, msg, partials))

    def test_deterministic_signature_value(self, scheme, material):
        # RSA-FDH: any quorum assembles the *same* signature.
        public, shares = material
        msg = b"unique"
        sig_a = scheme.combine(
            public, msg, [scheme.partial_sign(shares[i], msg) for i in (0, 1, 2)]
        )
        sig_b = scheme.combine(
            public, msg, [scheme.partial_sign(shares[i], msg) for i in (2, 3, 4)]
        )
        assert sig_a.value == sig_b.value

    def test_fixture_modulus_flow(self, scheme):
        public, shares = sh00.keygen(1, 4, bits=512)
        msg = b"fixture 512"
        partials = [scheme.partial_sign(shares[i], msg) for i in (0, 3)]
        for p in partials:
            scheme.verify_signature_share(public, msg, p)
        scheme.verify(public, msg, scheme.combine(public, msg, partials))

    def test_metadata(self, scheme):
        assert scheme.info.hardness == "RSA"
        assert scheme.info.verification == "ZKP"


class TestNegativePaths:
    def test_wrong_message_rejected(self, scheme, material):
        public, shares = material
        partials = [scheme.partial_sign(shares[i], b"msg-a") for i in (0, 1, 2)]
        signature = scheme.combine(public, b"msg-a", partials)
        with pytest.raises(InvalidSignatureError):
            scheme.verify(public, b"msg-b", signature)

    def test_forged_share_value_rejected(self, scheme, material):
        public, shares = material
        msg = b"forge"
        good = scheme.partial_sign(shares[0], msg)
        forged = Sh00SignatureShare(
            good.id, (good.value * 2) % public.n, good.challenge, good.response
        )
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, msg, forged)

    def test_share_replay_across_messages_rejected(self, scheme, material):
        public, shares = material
        share = scheme.partial_sign(shares[0], b"message one")
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, b"message two", share)

    def test_share_id_out_of_range(self, scheme, material):
        public, shares = material
        good = scheme.partial_sign(shares[0], b"m")
        bad = Sh00SignatureShare(42, good.value, good.challenge, good.response)
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, b"m", bad)

    def test_share_value_out_of_range(self, scheme, material):
        public, shares = material
        good = scheme.partial_sign(shares[0], b"m")
        bad = Sh00SignatureShare(good.id, 0, good.challenge, good.response)
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, b"m", bad)

    def test_threshold_enforced(self, scheme, material):
        public, shares = material
        partials = [scheme.partial_sign(shares[i], b"m") for i in (0, 1)]
        with pytest.raises(ThresholdNotReachedError):
            scheme.combine(public, b"m", partials)

    def test_tampered_signature_rejected(self, scheme, material):
        public, shares = material
        partials = [scheme.partial_sign(shares[i], b"m") for i in (0, 1, 2)]
        sig = scheme.combine(public, b"m", partials)
        with pytest.raises(InvalidSignatureError):
            scheme.verify(public, b"m", Sh00Signature(sig.value + 1))

    def test_party_count_must_stay_below_exponent(self, small_modulus):
        with pytest.raises(InvalidSignatureError):
            sh00.keygen(2, 70000, modulus=small_modulus)


class TestFullDomainHash:
    def test_in_range_and_square(self, material):
        public, _ = material
        x = _full_domain_hash(b"anything", public.n)
        assert 0 < x < public.n

    def test_deterministic(self, material):
        public, _ = material
        assert _full_domain_hash(b"a", public.n) == _full_domain_hash(b"a", public.n)

    def test_distinct_messages(self, material):
        public, _ = material
        assert _full_domain_hash(b"a", public.n) != _full_domain_hash(b"b", public.n)


class TestSerialization:
    def test_share_round_trip(self, scheme, material):
        public, shares = material
        share = scheme.partial_sign(shares[0], b"ser")
        restored = Sh00SignatureShare.from_bytes(share.to_bytes())
        scheme.verify_signature_share(public, b"ser", restored)

    def test_signature_round_trip(self, scheme, material):
        public, shares = material
        partials = [scheme.partial_sign(shares[i], b"ser") for i in (0, 1, 2)]
        sig = scheme.combine(public, b"ser", partials)
        restored = Sh00Signature.from_bytes(sig.to_bytes())
        scheme.verify(public, b"ser", restored)

    def test_public_key_round_trip(self, material):
        public, _ = material
        restored = sh00.Sh00PublicKey.from_bytes(public.to_bytes())
        assert restored.n == public.n
        assert restored.verification_keys == public.verification_keys


# ---------------------------------------------------------------------------
# Hostile inputs: the three decoders and the two calls that take a peer's share.
# ---------------------------------------------------------------------------


def _ints(*values: int) -> bytes:
    """Integer fields as the wire carries them, written out independently
    of ``repro.serialization`` so the rows below stay frozen."""
    return b"".join(
        len(body).to_bytes(4, "big") + body
        for body in (v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in values)
    )


_DECODERS = {
    "public key": Sh00PublicKey,
    "share": Sh00SignatureShare,
    "signature": Sh00Signature,
}

#: (decoder, case, bytes, decoded fields or None for SerializationError).
#: Frozen: a row that changes sides is a behaviour change to be argued.
_DECODE_TABLE = [
    ("signature", "one integer", _ints(5), (5,)),
    ("signature", "empty", b"", None),
    ("signature", "length prefix cut short", b"\x00\x00\x00", None),
    ("signature", "body cut short", b"\x00\x00\x00\x02\x05", None),
    ("signature", "zero-length body reads as no integer", b"\x00\x00\x00\x00", None),
    ("signature", "non-minimal body", b"\x00\x00\x00\x02\x00\x05", None),
    ("signature", "trailing byte", _ints(5) + b"\x00", None),
    ("signature", "absurd length", b"\xff\xff\xff\xff\x01", None),
    ("share", "four integers", _ints(1, 2, 3, 4), (1, 2, 3, 4)),
    ("share", "three integers", _ints(1, 2, 3), None),
    ("share", "five integers", _ints(1, 2, 3, 4, 5), None),
    ("share", "last field cut short", _ints(1, 2, 3, 4)[:-1], None),
    ("share", "non-minimal id", b"\x00\x00\x00\x02\x00\x01" + _ints(2, 3, 4), None),
    ("public key", "two parties, two keys", _ints(1, 2, 77, 3, 4, 9, 16),
     (1, 2, 77, 3, 4, (9, 16))),
    ("public key", "no parties, no keys", _ints(0, 0, 77, 3, 4), (0, 0, 77, 3, 4, ())),
    ("public key", "two parties, one key", _ints(1, 2, 77, 3, 4, 9), None),
    ("public key", "two parties, three keys", _ints(1, 2, 77, 3, 4, 9, 16, 25), None),
    ("public key", "2^32 parties, no keys", _ints(1, 2**32, 77, 3, 4), None),
    ("public key", "modulus missing", _ints(1, 2), None),
]


def _fields(decoded) -> tuple:
    if isinstance(decoded, Sh00PublicKey):
        return (
            decoded.threshold,
            decoded.parties,
            decoded.n,
            decoded.e,
            decoded.v,
            decoded.verification_keys,
        )
    if isinstance(decoded, Sh00SignatureShare):
        return (decoded.id, decoded.value, decoded.challenge, decoded.response)
    return (decoded.value,)


@pytest.fixture(scope="module")
def encodings(scheme, material):
    public, shares = material
    partials = [scheme.partial_sign(shares[i], b"hostile") for i in (0, 1, 2)]
    return {
        "public key": public.to_bytes(),
        "share": partials[0].to_bytes(),
        "signature": scheme.combine(public, b"hostile", partials).to_bytes(),
    }


@st.composite
def _mutants(draw, original: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "random"]))
    if kind == "truncate":
        return original[: draw(st.integers(0, len(original) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(original) - 1))
        mutant = bytearray(original)
        mutant[bit // 8] ^= 1 << (bit % 8)
        return bytes(mutant)
    return draw(st.binary(max_size=2 * len(original)))


class TestHostileDecoders:
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


#: Share values a peer may put on the wire that no honest party computes.
_HOSTILE_VALUES = {
    "zero": lambda modulus, good: 0,
    "n": lambda modulus, good: modulus.n,
    "n + 1": lambda modulus, good: modulus.n + 1,
    "far above n": lambda modulus, good: 1 << (modulus.n.bit_length() + 8),
    "p": lambda modulus, good: modulus.p,
    "q": lambda modulus, good: modulus.q,
    "good value times p": lambda modulus, good: good * modulus.p % modulus.n,
}


def _decoded_with_value(share: Sh00SignatureShare, value: int) -> Sh00SignatureShare:
    return Sh00SignatureShare.from_bytes(replace(share, value=value).to_bytes())


class TestHostileShareValues:
    """A decoded share with a value outside Z_n^* ends in a structured
    error from both calls that take it: never a bare ``ValueError`` from
    an inversion or an exponentiation."""

    @pytest.mark.parametrize("case", sorted(_HOSTILE_VALUES))
    def test_verify_signature_share_raises_a_structured_error(
        self, scheme, material, small_modulus, case
    ):
        public, shares = material
        good = scheme.partial_sign(shares[1], b"hostile value")
        hostile = _decoded_with_value(
            good, _HOSTILE_VALUES[case](small_modulus, good.value)
        )
        with pytest.raises(ThetacryptError):
            scheme.verify_signature_share(public, b"hostile value", hostile)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(_HOSTILE_VALUES))
    def test_combine_raises_a_structured_error(
        self, scheme, material, small_modulus, case, position
    ):
        # Ids 1, 2, 3 of five: the Δ-scaled Lagrange coefficient of id 2 is
        # negative, so each position takes another exponent path.
        public, shares = material
        partials = [scheme.partial_sign(shares[i], b"hostile value") for i in (0, 1, 2)]
        good = partials[position]
        partials[position] = _decoded_with_value(
            good, _HOSTILE_VALUES[case](small_modulus, good.value)
        )
        with pytest.raises(ThetacryptError):
            scheme.combine(public, b"hostile value", partials)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=2**300))
    def test_any_other_value_is_rejected_with_a_structured_error(
        self, scheme, material, offset
    ):
        public, shares = material
        good = scheme.partial_sign(shares[0], b"any value")
        # The proof binds x_i², so the honest value and its negation verify.
        assume(offset not in (good.value, public.n - good.value))
        with pytest.raises(ThetacryptError):
            scheme.verify_signature_share(
                public, b"any value", _decoded_with_value(good, offset)
            )


@pytest.mark.slow
def test_larger_fixture_sizes():
    """1024-bit modulus end-to-end (the paper also benchmarks 2048/4096)."""
    scheme = Sh00SignatureScheme()
    public, shares = sh00.keygen(1, 4, bits=1024)
    msg = b"big modulus"
    partials = [scheme.partial_sign(shares[i], msg) for i in (1, 2)]
    for p in partials:
        scheme.verify_signature_share(public, msg, p)
    scheme.verify(public, msg, scheme.combine(public, msg, partials))
