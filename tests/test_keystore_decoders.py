"""Hostile keystores: the share blob, the JSON document and the container.

A node reads ``keystore.bin`` from its ``data_dir`` and the dealer's
``keystore.json`` at every boot, so a damaged or hand-edited file must
load as a valid keystore or be refused with a :class:`SerializationError`
or a :class:`StorageError` that names the problem, never another
exception.  The tables are frozen (a row that changes sides is a
behaviour change to be argued); the properties throw truncations, bit
flips and random bytes at the same entry points.  Same shape as
``tests/test_deal_frames.py``.
"""

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orchestration import KeyManager
from repro.errors import SerializationError, StorageError
from repro.schemes.keystore import import_key_share, keystore_from_json
from tests.test_cipher_decoders import ED_BASE, ED_Y_TOO_BIG, _b, _s
from tests.test_scheme_sh00 import _ints, _mutants

#: A (1, 2) cks05 public key on ed25519, written out field by field: group
#: name, threshold, parties, h, one verification key per party.
_PUBLIC = _s("ed25519") + _ints(1, 2) + _b(ED_BASE, ED_BASE, ED_BASE)

#: Party 1's share of it: scheme, public key, share id, share value.
_SHARE = _s("cks05") + _b(_PUBLIC) + _ints(1, 5)

#: (case, share blob, (scheme, share id, value) or the error's words).
_SHARE_TABLE = [
    ("hand-built cks05 share", _SHARE, ("cks05", 1, 5)),
    ("empty", b"", "truncated"),
    ("truncated", _SHARE[:-1], "truncated"),
    ("trailing byte", _SHARE + b"\x00", "trailing bytes"),
    ("unknown scheme", _s("rsa") + _b(_PUBLIC) + _ints(1, 5), "unknown scheme 'rsa'"),
    ("share id 0", _s("cks05") + _b(_PUBLIC) + _ints(0, 5), "share id 0 outside 1..2"),
    ("share id 3 of 2", _s("cks05") + _b(_PUBLIC) + _ints(3, 5), "outside 1..2"),
    ("value missing", _s("cks05") + _b(_PUBLIC) + _ints(1), "truncated"),
    ("non-minimal share id",
     _s("cks05") + _b(_PUBLIC) + b"\x00\x00\x00\x02\x00\x01" + _ints(5),
     "non-minimal"),
    ("h with y >= p",
     _s("cks05") + _b(_s("ed25519") + _ints(1, 2) + _b(ED_Y_TOO_BIG, ED_BASE, ED_BASE))
     + _ints(1, 5),
     "y coordinate out of range"),
    ("public key of an unknown group",
     _s("cks05") + _b(_s("p256") + _ints(1, 2) + _b(ED_BASE, ED_BASE, ED_BASE))
     + _ints(1, 5),
     "unknown group 'p256'"),
]


def _document(keys, version=1) -> str:
    return json.dumps({"version": version, "keys": keys})


#: (case, keystore document, the key ids it holds or the error's words).
_DOCUMENT_TABLE = [
    ("one share", _document({"c": _SHARE.hex()}), {"c"}),
    ("no keys", _document({}), set()),
    ("keys missing", '{"version": 1}', set()),
    ("empty text", "", "not valid JSON"),
    ("not JSON", "{not json", "not valid JSON"),
    ("invalid UTF-8", b"\xff\xfe\x00", "not valid JSON"),
    ("nested 10^5 deep", "[" * 100_000, "not valid JSON"),
    ("a list", "[1]", "JSON list, not an object"),
    ("a string", '"keys"', "JSON str, not an object"),
    ("version missing", '{"keys": {}}', "keystore: unsupported keystore version None"),
    ("version 2", _document({}, version=2), "unsupported keystore version 2"),
    ("version true", _document({}, version=True), "unsupported keystore version True"),
    ("version 1.0", _document({}, version=1.0), "unsupported keystore version 1.0"),
    ("keys a list", '{"version": 1, "keys": [1]}', "keystore: keys are a JSON list"),
    ("share a number", '{"version": 1, "keys": {"c": 5}}',
     "keystore: key 'c' is not a hex string"),
    ("share not hex", _document({"c": "zz"}), "keystore: key 'c': invalid hex"),
    ("share truncated", _document({"c": _SHARE[:-1].hex()}),
     "keystore: key 'c': truncated"),
    ("second share bad", _document({"a": _SHARE.hex(), "b": "00"}), "keystore: key 'b'"),
    ("key id repeated",
     '{"version": 1, "keys": {"c": "%s", "c": "00"}}' % _SHARE.hex(),
     "keystore: key 'c' appears twice"),
    ("key id repeated, same share",
     '{"version": 1, "keys": {"c": "%s", "c": "%s"}}' % (_SHARE.hex(), _SHARE.hex()),
     "keystore: key 'c' appears twice"),
    ("version repeated", '{"version": 1, "version": 1, "keys": {}}',
     "keystore: key 'version' appears twice"),
]


def _container(payload: bytes, version: int = 1, magic: bytes = b"RPRO") -> bytes:
    """The keystore container, written out independently of
    ``repro.storage.atomic``: magic, version, CRC32, length, payload."""
    return (
        magic + version.to_bytes(2, "big") + zlib.crc32(payload).to_bytes(4, "big")
        + len(payload).to_bytes(4, "big") + payload
    )


_GOOD = _container(_document({"c": _SHARE.hex()}).encode())
_FROZEN = (
    Path(__file__).resolve().parent / "fixtures" / "keystore_v1" / "node1" / "keystore.bin"
).read_bytes()


def _flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1 :]


#: (case, keystore.bin bytes, the key ids it holds or the error's words).
_CONTAINER_TABLE = [
    ("hand-built", _GOOD, {"c"}),
    ("frozen node 1", _FROZEN, {"cipher", "coin", "sig"}),
    ("empty file", b"", "truncated container header"),
    ("header cut short", _GOOD[:13], "truncated container header"),
    ("payload cut short", _GOOD[:-1], "payload truncated"),
    ("bad magic", _container(b"{}", magic=b"RPRX"), "bad magic"),
    ("version 2", _container(_document({}).encode(), version=2), "version 2, expected 1"),
    ("CRC flip", _flip(_GOOD, 7), "CRC32 mismatch"),
    ("payload bit flip", _flip(_GOOD, len(_GOOD) - 3), "CRC32 mismatch"),
    ("trailing byte", _GOOD + b"\x00", "1 trailing bytes after the payload"),
    ("frozen plus a byte", _FROZEN + b"\n", "1 trailing bytes after the payload"),
    ("payload not JSON", _container(b"\xff"), "keystore.bin is not valid JSON"),
    ("payload a list", _container(b"[1]"), "keystore.bin is a JSON list"),
    ("payload repeats a key id",
     _container(b'{"version": 1, "keys": {"c": "%s", "c": "%s"}}'
                % (_SHARE.hex().encode(), _SHARE.hex().encode())),
     "keystore.bin: key 'c' appears twice"),
]


def _load(data: bytes) -> set[str]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "keystore.bin"
        path.write_bytes(data)
        return {entry.key_id for entry in KeyManager(path).list_keys()}


def _ids(table):
    return [row[0] for row in table]


class TestKeyShareTable:
    @pytest.mark.parametrize(
        "data,expected", [row[1:] for row in _SHARE_TABLE], ids=_ids(_SHARE_TABLE)
    )
    def test_accept_reject_table(self, data, expected):
        if isinstance(expected, str):
            with pytest.raises(SerializationError, match=expected):
                import_key_share(data)
            return
        scheme, share = import_key_share(data)
        assert (scheme, share.id, share.value) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutants_decode_or_raise_serialization_error(self, data):
        try:
            import_key_share(data.draw(_mutants(_SHARE)))
        except SerializationError:
            pass


class TestKeystoreDocumentTable:
    @pytest.mark.parametrize(
        "text,expected", [row[1:] for row in _DOCUMENT_TABLE], ids=_ids(_DOCUMENT_TABLE)
    )
    def test_accept_reject_table(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(SerializationError, match=expected):
                keystore_from_json(text)
            return
        assert set(keystore_from_json(text)) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutants_decode_or_raise_serialization_error(self, data):
        try:
            keystore_from_json(data.draw(_mutants(_document({"c": _SHARE.hex()}).encode())))
        except SerializationError:
            pass


class TestKeystoreContainerTable:
    @pytest.mark.parametrize(
        "data,expected", [row[1:] for row in _CONTAINER_TABLE], ids=_ids(_CONTAINER_TABLE)
    )
    def test_accept_reject_table(self, data, expected):
        if isinstance(expected, str):
            with pytest.raises((StorageError, SerializationError), match=expected):
                _load(data)
            return
        assert _load(data) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutants_load_or_raise_by_name(self, data):
        """Mutants of the frozen file, and of its payload re-wrapped with a
        valid CRC so the JSON and share decoders see the damage too."""
        if data.draw(st.booleans()):
            mutant = data.draw(_mutants(_FROZEN))
        else:
            mutant = _container(data.draw(_mutants(_FROZEN[14:])))
        try:
            _load(mutant)
        except (StorageError, SerializationError):
            pass
