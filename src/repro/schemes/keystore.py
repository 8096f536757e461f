"""Key-material serialization: move dealer output between processes.

The trusted dealer runs once, on one machine; each node's share must then
travel to that node (over a secure channel — fixture files here).  Every
scheme's key share serializes as::

    scheme-name | public-key bytes | share id | share secret

and a *keystore* bundles the named shares of one node as JSON.  Public keys
alone (for clients that only encrypt/verify) use the same container without
the secret.
"""

from __future__ import annotations

import json
from typing import Mapping

from ..errors import KeyManagementError, SerializationError
from ..serialization import Reader, encode_bytes, encode_int, encode_str, hexlify, unhexlify
from . import bls04, bz03, cks05, kg20, sg02, sh00
from .keygen import KeyMaterial

#: Scheme → (public key class, key share class).
KEY_CLASSES = {
    "sg02": (sg02.Sg02PublicKey, sg02.Sg02KeyShare),
    "bz03": (bz03.Bz03PublicKey, bz03.Bz03KeyShare),
    "sh00": (sh00.Sh00PublicKey, sh00.Sh00KeyShare),
    "bls04": (bls04.Bls04PublicKey, bls04.Bls04KeyShare),
    "kg20": (kg20.Kg20PublicKey, kg20.Kg20KeyShare),
    "cks05": (cks05.Cks05PublicKey, cks05.Cks05KeyShare),
}


def export_key_share(scheme: str, key_share) -> bytes:
    """Serialize one party's share (public part included, self-contained)."""
    if scheme not in KEY_CLASSES:
        raise KeyManagementError(f"unknown scheme {scheme!r}")
    return (
        encode_str(scheme)
        + encode_bytes(key_share.public.to_bytes())
        + encode_int(key_share.id)
        + encode_int(key_share.value)
    )


def import_key_share(data: bytes):
    """Inverse of :func:`export_key_share`; returns (scheme, key_share)."""
    reader = Reader(data)
    scheme = reader.read_str()
    if scheme not in KEY_CLASSES:
        raise SerializationError(f"unknown scheme {scheme!r} in key share")
    public_cls, share_cls = KEY_CLASSES[scheme]
    public = public_cls.from_bytes(reader.read_bytes())
    share_id = reader.read_int()
    value = reader.read_int()
    reader.finish()
    if not 1 <= share_id <= public.parties:
        raise SerializationError(
            f"share id {share_id} outside 1..{public.parties} in key share"
        )
    return scheme, share_cls(share_id, value, public)


def export_public_key(scheme: str, public_key) -> bytes:
    """Serialize just the public part (for encrypt/verify-only clients)."""
    if scheme not in KEY_CLASSES:
        raise KeyManagementError(f"unknown scheme {scheme!r}")
    return encode_str(scheme) + encode_bytes(public_key.to_bytes())


def import_public_key(data: bytes):
    """Inverse of :func:`export_public_key`; returns (scheme, public_key)."""
    reader = Reader(data)
    scheme = reader.read_str()
    if scheme not in KEY_CLASSES:
        raise SerializationError(f"unknown scheme {scheme!r} in public key")
    public = KEY_CLASSES[scheme][0].from_bytes(reader.read_bytes())
    reader.finish()
    return scheme, public


# ---------------------------------------------------------------------------
# JSON keystore files (one per node).
# ---------------------------------------------------------------------------


def keystore_to_json(shares: Mapping[str, tuple[str, object]]) -> str:
    """Encode {key_id: (scheme, key_share)} as a keystore document."""
    entries = {
        key_id: hexlify(export_key_share(scheme, share))
        for key_id, (scheme, share) in shares.items()
    }
    return json.dumps({"version": 1, "keys": entries}, indent=2)


def _unique_members(pairs: list, source: str) -> dict:
    """One JSON object's members; ``json`` alone keeps the last of a
    repeated name, so a repeat is refused."""
    document = dict(pairs)
    if len(document) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise SerializationError(f"{source}: key {name!r} appears twice")
            seen.add(name)
    return document


def keystore_from_json(
    text: str | bytes, source: str = "keystore"
) -> dict[str, tuple[str, object]]:
    """Decode a keystore document back to {key_id: (scheme, key_share)}.

    Anything but a version 1 object whose ``keys`` object maps ids to hex
    share blobs is refused with a :class:`SerializationError` that names
    ``source`` and the problem (and the key id, for a bad share or one
    given twice: ``json`` alone would keep the last share of a repeated id).
    """
    try:
        document = json.loads(
            text, object_pairs_hook=lambda pairs: _unique_members(pairs, source)
        )
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise SerializationError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SerializationError(
            f"{source} is a JSON {type(document).__name__}, not an object"
        )
    version = document.get("version")
    if type(version) is not int or version != 1:
        raise SerializationError(f"{source}: unsupported keystore version {version!r}")
    keys = document.get("keys", {})
    if not isinstance(keys, dict):
        raise SerializationError(
            f"{source}: keys are a JSON {type(keys).__name__}, not an object"
        )
    shares = {}
    for key_id, blob in keys.items():
        if not isinstance(blob, str):
            raise SerializationError(f"{source}: key {key_id!r} is not a hex string")
        try:
            shares[key_id] = import_key_share(unhexlify(blob))
        except SerializationError as exc:
            raise SerializationError(f"{source}: key {key_id!r}: {exc}") from exc
    return shares


def node_keystore(key_material: Mapping[str, KeyMaterial], node_id: int) -> str:
    """Build node ``node_id``'s keystore from dealer output for many keys."""
    return keystore_to_json(
        {
            key_id: (material.scheme, material.share_for(node_id))
            for key_id, material in key_material.items()
        }
    )
