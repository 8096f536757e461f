"""Canonical binary encoding helpers shared across the library.

Thetacrypt exchanges protocol messages between nodes and returns
cryptographic objects over RPC.  Both need a *canonical* byte encoding:
Fiat-Shamir challenges hash serialized transcripts, so any ambiguity in the
encoding would be a security bug.  The helpers here implement a tiny,
deterministic TLV-free format:

* integers are encoded big-endian with an explicit 4-byte length prefix,
* byte strings carry a 4-byte length prefix,
* sequences concatenate the encodings of their items after a 4-byte count.

The format is intentionally simple rather than self-describing; each decoder
knows the exact shape it expects, mirroring how protobuf messages are used in
the original Rust codebase.

:func:`config_fields` is the JSON counterpart for the objects that configure
a node (``config.json``): it checks one object against a config dataclass.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigurationError, SerializationError

_LEN_BYTES = 4
_MAX_LEN = 2**32 - 1


def encode_bytes(data: bytes) -> bytes:
    """Encode a byte string with a 4-byte big-endian length prefix."""
    if len(data) > _MAX_LEN:
        raise SerializationError("byte string too long to encode")
    return len(data).to_bytes(_LEN_BYTES, "big") + data


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer canonically (minimal big-endian body)."""
    if value < 0:
        raise SerializationError("cannot encode negative integer")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return encode_bytes(body)


def encode_str(value: str) -> bytes:
    """Encode a unicode string as length-prefixed UTF-8."""
    return encode_bytes(value.encode("utf-8"))


class Reader:
    """Sequential decoder over a byte buffer.

    Raises :class:`SerializationError` on truncation and requires the caller
    to consume the buffer fully via :meth:`finish`, so trailing garbage is
    rejected rather than silently ignored.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise SerializationError(
                f"truncated buffer: need {count} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_bytes(self) -> bytes:
        length = int.from_bytes(self._take(_LEN_BYTES), "big")
        return self._take(length)

    def read_int(self) -> int:
        body = self.read_bytes()
        if not body:
            raise SerializationError("empty integer encoding")
        if len(body) > 1 and body[0] == 0:
            raise SerializationError("non-minimal integer encoding")
        return int.from_bytes(body, "big")

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 string") from exc

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def finish(self) -> None:
        if self.remaining:
            raise SerializationError(f"{self.remaining} trailing bytes after decode")


def hexlify(data: bytes) -> str:
    """Hex encoding used by the JSON RPC layer."""
    return data.hex()


def unhexlify(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise SerializationError("invalid hex string") from exc


#: JSON types a scalar config field accepts, by its annotation (a bool is
#: an ``int`` to Python, never to a config file).
_JSON_SCALARS = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "None": (type(None),),
}


def config_fields(cls, payload) -> dict:
    """Check a decoded JSON object against the config dataclass ``cls``.

    Returns the object as keyword arguments for ``cls``.  Raises
    :class:`ConfigurationError` naming what is wrong: a payload that is not
    an object, keys ``cls`` declares no field for, or a scalar field
    (``int``, ``float``, ``str``, ``bool``, optionally ``| None``) holding
    another JSON type.  Nested fields are left to their own decoder.
    """
    name = cls.__name__
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{name} must be a JSON object, got {type(payload).__name__}"
        )
    declared = {field.name: field.type for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(declared))
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {', '.join(unknown)}")
    for key, value in payload.items():
        options = str(declared[key]).split(" | ")
        if not all(option in _JSON_SCALARS for option in options):
            continue
        accepted = tuple(t for option in options for t in _JSON_SCALARS[option])
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and "bool" not in options
        ):
            raise ConfigurationError(
                f"{name}.{key} must be {declared[key]}, got {value!r}"
            )
    return dict(payload)
