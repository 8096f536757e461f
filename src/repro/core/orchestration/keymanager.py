"""Key manager: the node's key shares, and what the executor asks for them.

Keys come from the trusted dealer's output or a completed dealing (§2.2)
and live in one map under string ids.  The manager owns the custody rules:
a held share is never silently swapped for a share of another key.

With a ``path`` the map is durable: it is loaded from that file when the
manager is built, and every mutation first rewrites the whole snapshot,
the :mod:`repro.storage.atomic` integrity container around the
:mod:`repro.schemes.keystore` JSON document, atomically, and only then
adopts it in memory.  Keystores are small (a handful of shares per node),
so rewrite-on-mutation is both the simplest and the safest policy: the
file is always a complete, CRC-verified snapshot, and a write that fails
leaves the old share both on disk and in memory.  Without a ``path`` the
map is memory-only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from ...errors import KeyManagementError
from ...schemes.base import SCHEME_TABLE
from ...schemes.keystore import keystore_from_json, keystore_to_json
from ...storage.atomic import read_versioned, write_versioned

#: Container version of the on-disk keystore snapshot.
KEYSTORE_VERSION = 1


@dataclass(frozen=True)
class KeyEntry:
    """One installed key: public part plus this node's private share."""

    key_id: str
    scheme: str
    public_key: object
    key_share: object

    @property
    def kind(self) -> str:
        return SCHEME_TABLE[self.scheme].kind.value


def _group_key(public_key) -> dict:
    """What a refresh leaves unchanged: every public-key field (group key,
    threshold, parties, ...) but the per-party verification keys."""
    return {
        field.name: getattr(public_key, field.name)
        for field in dataclasses.fields(public_key)
        if field.name != "verification_keys"
    }


class KeyManager:
    """Per-node map of threshold key material, persisted at ``path`` if
    one is given (see the module docstring)."""

    def __init__(self, path: Path | str | None = None) -> None:
        self._path = None if path is None else Path(path)
        self._keys: dict[str, KeyEntry] = {}
        if self._path is not None and self._path.exists():
            _, payload = read_versioned(self._path, KEYSTORE_VERSION)
            shares = keystore_from_json(payload, source=str(self._path))
            for key_id in shares:
                self.check_id(key_id)
            self._keys = {
                key_id: KeyEntry(key_id, scheme, share.public, share)
                for key_id, (scheme, share) in shares.items()
            }

    @staticmethod
    def check_id(key_id: str) -> None:
        """Refuse a key id holding U+0000: ``derive_instance_id`` ends the
        id at a NUL byte, so such an id could name another key's instances
        and be answered with that key's results."""
        if "\0" in key_id:
            raise KeyManagementError(f"key id {key_id!r} contains U+0000")

    def register(
        self, key_id: str, scheme: str, public_key: object, key_share: object
    ) -> None:
        """Install a share under ``key_id``.

        A no-op when the id already holds a share of the *same key* (same
        scheme and group key): a durable node is handed the dealer output
        again at every boot, and the share its keystore holds, the dealt one
        or the one a refresh replaced it with, is the one to keep.  Another
        key under a held id is refused, and so is an id :meth:`check_id`
        refuses.
        """
        self.check_id(key_id)
        if key_id in self._keys:
            held = self._keys[key_id]
            if held.scheme == scheme and _group_key(held.public_key) == _group_key(
                public_key
            ):
                return
            raise KeyManagementError(
                f"key id {key_id!r} already installed with a different group key"
            )
        if scheme not in SCHEME_TABLE:
            raise KeyManagementError(f"unknown scheme {scheme!r}")
        self._install(KeyEntry(key_id, scheme, public_key, key_share))

    def replace(self, key_id: str, public_key: object, key_share: object) -> None:
        """Swap a held key's share for a fresh share of the same group key
        (a refresh) in one atomic keystore overwrite, then one assignment."""
        held = self.get(key_id)
        if _group_key(public_key) != _group_key(held.public_key):
            raise KeyManagementError(
                f"key id {key_id!r}: the new share is of a different group key"
            )
        self._install(KeyEntry(key_id, held.scheme, public_key, key_share))

    def _install(self, entry: KeyEntry) -> None:
        keys = {**self._keys, entry.key_id: entry}
        if self._path is not None:
            payload = keystore_to_json(
                {key_id: (e.scheme, e.key_share) for key_id, e in keys.items()}
            )
            self._path.parent.mkdir(parents=True, exist_ok=True)
            write_versioned(self._path, payload.encode("utf-8"), KEYSTORE_VERSION)
        self._keys = keys

    def get(self, key_id: str) -> KeyEntry:
        if key_id not in self._keys:
            raise KeyManagementError(f"unknown key id {key_id!r}")
        return self._keys[key_id]

    def list_keys(self) -> list[KeyEntry]:
        return sorted(self._keys.values(), key=lambda entry: entry.key_id)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys
