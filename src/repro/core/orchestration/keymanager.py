"""Key manager: the component the protocol executor asks for key material.

Keys are registered at node start-up (from the trusted dealer's output or a
completed DKG) under string ids; the manager indexes them by id and by
scheme so the service layer can resolve "sign with any BLS key" style
requests as well as explicit key references.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import KeyManagementError
from ...schemes.base import SCHEME_TABLE


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


class KeyManager:
    """Per-node store of threshold key material.

    With a ``store`` (a :class:`repro.storage.DurableKeystore`-shaped
    object) attached, every ``register``/``replace``/``remove`` persists
    through it before updating memory, and previously persisted shares are
    reloaded at construction — key custody survives process death.
    """

    def __init__(self, store=None) -> None:
        self._keys: dict[str, KeyEntry] = {}
        self._store = store
        if store is not None:
            for key_id, scheme, share in store.items():
                # Direct insert: these entries are already on disk, and
                # register() would redundantly rewrite the snapshot.
                self._keys[key_id] = KeyEntry(key_id, scheme, share.public, share)

    def register(
        self, key_id: str, scheme: str, public_key: object, key_share: object
    ) -> None:
        if key_id in self._keys:
            raise KeyManagementError(f"key id {key_id!r} already registered")
        if scheme not in SCHEME_TABLE:
            raise KeyManagementError(f"unknown scheme {scheme!r}")
        self._install(key_id, scheme, public_key, key_share)

    def replace(self, key_id: str, public_key: object, key_share: object) -> None:
        """Swap an installed key's material (share refresh) in one step: one
        atomic keystore overwrite, then one assignment.  A store that fails
        leaves the old share installed, on disk and in memory."""
        self._install(key_id, self.get(key_id).scheme, public_key, key_share)

    def _install(self, key_id, scheme, public_key, key_share) -> None:
        if self._store is not None:
            self._store.put(key_id, scheme, key_share)
        self._keys[key_id] = KeyEntry(key_id, scheme, public_key, key_share)

    def get(self, key_id: str) -> KeyEntry:
        if key_id not in self._keys:
            raise KeyManagementError(f"unknown key id {key_id!r}")
        return self._keys[key_id]

    def remove(self, key_id: str) -> None:
        if key_id not in self._keys:
            raise KeyManagementError(f"unknown key id {key_id!r}")
        if self._store is not None:
            self._store.remove(key_id)
        del self._keys[key_id]

    def list_keys(self, scheme: str | None = None) -> list[KeyEntry]:
        return sorted(
            (
                entry
                for entry in self._keys.values()
                if scheme is None or entry.scheme == scheme
            ),
            key=lambda entry: entry.key_id,
        )

    def first_for_scheme(self, scheme: str) -> KeyEntry:
        """Resolve "any key for this scheme" (used by benchmark clients)."""
        for entry in self.list_keys(scheme):
            return entry
        raise KeyManagementError(f"no key installed for scheme {scheme!r}")

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys
