"""Disk-backed keystore: key shares that survive process death.

Layered on the existing :mod:`repro.schemes.keystore` serialization (the
same self-contained ``scheme | public | id | secret`` share encoding the
trusted dealer ships between machines), wrapped in the
:mod:`repro.storage.atomic` integrity container and replaced atomically on
every mutation.  Keystores are small (a handful of shares per node), so
rewrite-on-mutation is both the simplest and the safest policy: the file on
disk is always a complete, CRC-verified snapshot.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import KeyManagementError
from ..schemes.keystore import keystore_from_json, keystore_to_json
from .atomic import read_versioned, write_versioned

#: Container version of the on-disk keystore snapshot.
KEYSTORE_VERSION = 1


class DurableKeystore:
    """Crash-safe ``{key_id: (scheme, key_share)}`` store for one node."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._entries: dict[str, tuple[str, object]] = {}
        if self.path.exists():
            _, payload = read_versioned(self.path, KEYSTORE_VERSION)
            self._entries = keystore_from_json(payload.decode("utf-8"))

    # -- mutation (each call persists before returning) ------------------------

    def put(self, key_id: str, scheme: str, key_share: object) -> None:
        self._flush({**self._entries, key_id: (scheme, key_share)})

    def remove(self, key_id: str) -> None:
        if key_id not in self._entries:
            raise KeyManagementError(f"unknown key id {key_id!r}")
        self._flush({k: v for k, v in self._entries.items() if k != key_id})

    def _flush(self, entries: dict[str, tuple[str, object]]) -> None:
        """Write the snapshot, then adopt it: a write that fails leaves
        memory describing the file that is still on disk."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = keystore_to_json(entries).encode("utf-8")
        write_versioned(self.path, payload, KEYSTORE_VERSION)
        self._entries = entries

    # -- read ------------------------------------------------------------------

    def items(self) -> list[tuple[str, str, object]]:
        """``(key_id, scheme, key_share)`` triples, sorted by key id."""
        return [
            (key_id, scheme, share)
            for key_id, (scheme, share) in sorted(self._entries.items())
        ]

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)
