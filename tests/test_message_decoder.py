"""Hostile inputs for the P2P frame decoder, ``ProtocolMessage.from_bytes``.

Every frame a peer sends is decoded here before anything else looks at it,
so the decoder must hand back a :class:`ProtocolMessage` that re-encodes to
the very bytes it came from, or raise :class:`SerializationError`, never
another exception.  The table is frozen (a row that changes sides is a
behaviour change to be argued); the property throws truncations, bit flips
and random bytes at it.  Same shape as ``tests/test_coin_frost_decoders.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Channel, ProtocolMessage
from repro.errors import SerializationError
from tests.test_cipher_decoders import _b, _s
from tests.test_scheme_sh00 import _ints, _mutants


def _frame(
    instance=_s("abc"),
    sender=_ints(2),
    round_=_ints(0),
    channel=_s("p2p"),
    payload=_b(b"x"),
    recipient=_ints(0),
    trace=_s(""),
) -> bytes:
    """A frame spelled field by field, so one row can spoil one field."""
    return instance + sender + round_ + channel + payload + recipient + trace


def _fields(message: ProtocolMessage) -> tuple:
    return (
        message.instance_id, message.sender, message.round, message.channel,
        message.payload, message.recipient, message.trace_id,
    )


_EMPTY_INT = b"\x00\x00\x00\x00"
_NON_MINIMAL_ONE = b"\x00\x00\x00\x02\x00\x01"
_FULL = _frame(recipient=_ints(3), trace=_s("t" * 16))
#: Offsets at which ``_FULL`` ends one field and starts the next.
_FIELD_LENGTHS = [
    len(field)
    for field in (_s("abc"), _ints(2), _ints(0), _s("p2p"), _b(b"x"), _ints(3))
]
_BOUNDARIES = [sum(_FIELD_LENGTHS[:k]) for k in range(7)]

#: (case, bytes, decoded fields or None for SerializationError).
_DECODE_TABLE = [
    ("broadcast, untraced", _frame(), ("abc", 2, 0, Channel.P2P, b"x", 0, "")),
    ("directed and traced", _FULL,
     ("abc", 2, 0, Channel.P2P, b"x", 3, "t" * 16)),
    ("tob channel", _frame(channel=_s("tob")), ("abc", 2, 0, Channel.TOB, b"x", 0, "")),
    ("empty payload", _frame(payload=_b(b"")), ("abc", 2, 0, Channel.P2P, b"", 0, "")),
    ("empty instance id", _frame(instance=_s("")), ("", 2, 0, Channel.P2P, b"x", 0, "")),
    ("unicode instance id", _frame(instance=_s("é")),
     ("é", 2, 0, Channel.P2P, b"x", 0, "")),
    ("sender beyond any party id", _frame(sender=_ints(2**64)),
     ("abc", 2**64, 0, Channel.P2P, b"x", 0, "")),
    *[(f"cut after {k} fields", _FULL[:cut], None) for k, cut in enumerate(_BOUNDARIES)],
    ("cut inside the payload", _FULL[: _BOUNDARIES[4] + 4], None),
    ("cut inside the trace id", _FULL[:-1], None),
    ("trailing byte", _frame() + b"\x00", None),
    ("sender with an empty body", _frame(sender=_EMPTY_INT), None),
    ("round with an empty body", _frame(round_=_EMPTY_INT), None),
    ("recipient with an empty body", _frame(recipient=_EMPTY_INT), None),
    ("non-minimal sender", _frame(sender=_NON_MINIMAL_ONE), None),
    ("non-minimal round", _frame(round_=_NON_MINIMAL_ONE), None),
    ("non-minimal recipient", _frame(recipient=_NON_MINIMAL_ONE), None),
    ("instance id not UTF-8", _frame(instance=_b(b"\xff")), None),
    ("channel not UTF-8", _frame(channel=_b(b"p2p\xff")), None),
    ("trace id not UTF-8", _frame(trace=_b(b"\xc3")), None),
    ("surrogate in the trace id", _frame(trace=_b(b"\xed\xa0\x80")), None),
    ("unknown channel", _frame(channel=_s("gossip")), None),
    ("channel in upper case", _frame(channel=_s("P2P")), None),
    ("empty channel", _frame(channel=_s("")), None),
    ("absurd instance id length", b"\xff\xff\xff\xff" + _frame()[7:], None),
]

_WELL_FORMED = [
    ProtocolMessage("abc", 2, 0, Channel.P2P, b"x").to_bytes(),
    ProtocolMessage("f" * 64, 4, 3, Channel.TOB, bytes(range(40)), 1, "0" * 16).to_bytes(),
]


class TestHostileProtocolMessages:
    @pytest.mark.parametrize(
        "data,expected",
        [(row[1], row[2]) for row in _DECODE_TABLE],
        ids=[row[0] for row in _DECODE_TABLE],
    )
    def test_accept_reject_table(self, data, expected):
        if expected is None:
            with pytest.raises(SerializationError):
                ProtocolMessage.from_bytes(data)
        else:
            message = ProtocolMessage.from_bytes(data)
            assert _fields(message) == expected
            assert message.to_bytes() == data

    def test_well_formed_encodings_round_trip(self):
        for data in _WELL_FORMED:
            assert ProtocolMessage.from_bytes(data).to_bytes() == data

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutants_round_trip_or_raise_serialization_error(self, data):
        original = data.draw(st.sampled_from(_WELL_FORMED))
        mutant = data.draw(_mutants(original))
        try:
            decoded = ProtocolMessage.from_bytes(mutant)
        except SerializationError:
            return
        assert isinstance(decoded, ProtocolMessage)
        assert decoded.to_bytes() == mutant
