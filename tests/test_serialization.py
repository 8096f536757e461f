"""Canonical encoding: round-trips, canonicality, and malformed input."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.serialization import (
    Reader,
    encode_bytes,
    encode_int,
    encode_str,
    hexlify,
    unhexlify,
)


class TestEncodeBytes:
    def test_round_trip(self):
        reader = Reader(encode_bytes(b"hello"))
        assert reader.read_bytes() == b"hello"
        reader.finish()

    def test_empty(self):
        reader = Reader(encode_bytes(b""))
        assert reader.read_bytes() == b""
        reader.finish()

    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            Reader(b"\x00\x00").read_bytes()

    def test_truncated_body(self):
        with pytest.raises(SerializationError):
            Reader(b"\x00\x00\x00\x05ab").read_bytes()

    def test_trailing_garbage_rejected(self):
        reader = Reader(encode_bytes(b"x") + b"junk")
        reader.read_bytes()
        with pytest.raises(SerializationError):
            reader.finish()

    @given(st.binary(max_size=4096))
    def test_round_trip_property(self, data):
        reader = Reader(encode_bytes(data))
        assert reader.read_bytes() == data
        reader.finish()


class TestEncodeInt:
    def test_round_trip(self):
        reader = Reader(encode_int(123456789))
        assert reader.read_int() == 123456789
        reader.finish()

    def test_zero(self):
        reader = Reader(encode_int(0))
        assert reader.read_int() == 0
        reader.finish()

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_int(-1)

    def test_non_minimal_rejected(self):
        # A leading zero byte is a second encoding of the same value.
        padded = encode_bytes(b"\x00\x01")
        with pytest.raises(SerializationError):
            Reader(padded).read_int()

    def test_empty_body_rejected(self):
        # encode_int(0) writes b"\x00"; an empty body would be a second zero.
        assert encode_int(0) == encode_bytes(b"\x00")
        with pytest.raises(SerializationError):
            Reader(encode_bytes(b"")).read_int()

    @given(st.integers(min_value=0, max_value=2**4096))
    def test_round_trip_property(self, value):
        reader = Reader(encode_int(value))
        assert reader.read_int() == value
        reader.finish()


class TestEncodeStr:
    def test_round_trip(self):
        reader = Reader(encode_str("θ-network"))
        assert reader.read_str() == "θ-network"
        reader.finish()

    def test_invalid_utf8(self):
        with pytest.raises(SerializationError):
            Reader(encode_bytes(b"\xff\xfe")).read_str()


class TestHex:
    def test_round_trip(self):
        assert unhexlify(hexlify(b"\x00\xffA")) == b"\x00\xffA"

    def test_invalid(self):
        with pytest.raises(SerializationError):
            unhexlify("zz")


def test_mixed_struct_round_trip():
    blob = encode_str("sg02") + encode_int(7) + encode_bytes(b"payload")
    reader = Reader(blob)
    assert reader.read_str() == "sg02"
    assert reader.read_int() == 7
    assert reader.read_bytes() == b"payload"
    reader.finish()
