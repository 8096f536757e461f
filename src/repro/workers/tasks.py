"""Pickle-safe worker tasks for the crypto pool.

Every function in this module runs inside a spawn-context worker process,
so the contract is strict:

* top-level functions only (spawn pickles them by reference);
* arguments and results are primitives — ``bytes``, ``str``, ``int``,
  lists and dicts thereof — never group elements or key objects;
* key material is **content-addressed** (see :mod:`repro.workers.blobs`):
  specs reference export blobs by digest, each worker holds a bounded LRU
  of blobs installed at spawn time (:func:`warm_worker`), via the
  explicit :func:`install_blob` task, or piggybacked on a task's
  ``blobs`` argument.  A digest the worker cannot resolve raises
  :class:`BlobCacheMissError`, which the pool answers by retrying the
  task once with the blobs attached — key material crosses the process
  boundary at most once per worker, not once per task;
* verification tasks report per-payload verdicts (``None`` = valid,
  ``str`` = rejection reason) instead of raising, so a byzantine payload
  cannot abort the whole batch and nothing exotic has to cross the
  process boundary as a pickled exception.

The *operation spec* shared by the share tasks is a plain dict::

    {"scheme": "bls04", "public_digest": <hex sha256>,
     "kind": "sign" | "decrypt" | "coin", "data": <request bytes>,
     "share_digest": <hex sha256>,          # create_share only
     "blobs": {digest: blob, ...}}          # optional piggyback install

Legacy inline blobs (``"public"`` / ``"share"`` keys carrying the raw
export bytes) remain accepted so the tasks stay usable standalone.

The share tasks rebuild the parent's own adapter with
:func:`~repro.core.protocols.operations.make_operation` and call the same
``create_own_share`` / ``verify_payloads`` the inline path calls; nothing
scheme-specific lives here.
"""

from __future__ import annotations

import os
import time

from ..core.protocols.operations import (
    OperationRequest,
    ShareOperation,
    make_operation,
)
from ..schemes.keystore import import_key_share, import_public_key
from .blobs import BlobStore

#: Groups whose generator fixed-base tables each worker builds at spawn
#: time.  The PR-1 precompute caches are per-process; without warming, a
#: fresh worker would re-derive them cold in the middle of its first task.
DEFAULT_WARM_GROUPS: tuple[str, ...] = ("ed25519", "bn254g1", "bn254g2")

#: This worker process's blob cache (digest -> export blob + parsed key).
#: One per process: the parent's copy of this module keeps its own store
#: via :func:`repro.workers.blobs.parent_store` instead.
_worker_blobs = BlobStore()


class BlobCacheMissError(Exception):
    """A spec referenced digests this worker does not hold.

    Travels back to the parent as a pickled exception; the pool resolves
    the digests from its parent-side store and retries the task once with
    the blobs attached.  Carrying the digest list keeps the retry minimal.
    """

    def __init__(self, digests: list[str]):
        super().__init__(f"worker missing blobs: {sorted(digests)}")
        self.digests = sorted(digests)

    def __reduce__(self):
        return (BlobCacheMissError, (self.digests,))


def warm_worker(
    group_names: tuple[str, ...] = DEFAULT_WARM_GROUPS,
    blob_items: tuple[tuple[str, bytes], ...] = (),
    table_digests: tuple[str, ...] = (),
) -> None:
    """Process-pool initializer: build the hot fixed-base tables once.

    Also forces the heavyweight curve imports (the BN254 tower does real
    work at import time), so the first real task measures cryptography,
    not interpreter warm-up — and pre-installs the parent's current key
    blobs so the steady state never ships key material per task.

    ``table_digests`` names blobs (already in ``blob_items``) that hold
    serialized fixed-base tables; those install directly into this
    worker's precompute cache, so the generator warm-up below finds them
    already present instead of rebuilding (deserializing is 2–3× cheaper
    than building).  A table blob that fails its checks is skipped — the
    worker then simply rebuilds that table on demand.
    """
    from ..groups.precompute import fixed_base_table, install_table
    from ..groups.registry import get_group
    from ..groups.tables import table_from_blob

    for digest, blob in blob_items:
        _worker_blobs.add(digest, blob)
    for digest in table_digests:
        blob = _worker_blobs.get_blob(digest)
        if blob is None:
            continue
        try:
            install_table(table_from_blob(blob, source=f"table blob {digest[:12]}"))
        except Exception:  # noqa: BLE001 - a bad table must not kill the worker
            continue
    for name in group_names:
        group = get_group(name)
        fixed_base_table(group.generator())


def install_blob(blob_items: list[tuple[str, bytes]]) -> int:
    """Install content-addressed blobs into this worker's cache.

    Returns the number of entries now resident; used by the pool to ship
    key material eagerly and by tests to stage worker state.
    """
    for digest, blob in blob_items:
        _worker_blobs.add(digest, blob)
    return len(_worker_blobs)


def worker_health() -> dict:
    """Tiny diagnostic task: which process am I, and is it warm?"""
    from ..groups.precompute import precompute_stats

    return {
        "pid": os.getpid(),
        "precompute": precompute_stats(),
        "blob_cache": _worker_blobs.stats(),
    }


def hold_worker(seconds: float) -> int:
    """Diagnostic task that pins a worker for ``seconds``.

    Used by crash tests that need several tasks in flight on one
    executor generation when a worker is SIGKILLed.
    """
    time.sleep(max(0.0, float(seconds)))
    return os.getpid()


# ---------------------------------------------------------------------------
# Digest resolution against the worker blob cache.
# ---------------------------------------------------------------------------


def _spec_blobs(spec: dict) -> dict:
    return spec.get("blobs") or {}


def _missing_digests(spec: dict, include_share: bool) -> list[str]:
    shipped = _spec_blobs(spec)
    missing = []
    for key, raw_key in (("public_digest", "public"),) + (
        (("share_digest", "share"),) if include_share else ()
    ):
        digest = spec.get(key)
        if digest is None:
            continue  # legacy raw blob under raw_key
        if digest not in _worker_blobs and digest not in shipped:
            missing.append(digest)
    return missing


def _check_spec(spec: dict, include_share: bool) -> None:
    """Install piggybacked blobs; raise for digests nobody can resolve."""
    for digest, blob in _spec_blobs(spec).items():
        _worker_blobs.add(digest, blob)
    missing = _missing_digests(spec, include_share)
    if missing:
        raise BlobCacheMissError(missing)


def _resolve_public(spec: dict):
    """(scheme_name, public_key) from a digest or a legacy inline blob."""
    digest = spec.get("public_digest")
    if digest is None:
        return import_public_key(spec["public"])
    resolved = _worker_blobs.get_object(digest, import_public_key)
    if resolved is None:
        raise BlobCacheMissError([digest])
    return resolved


def _resolve_share(spec: dict):
    """(scheme_name, key_share) from a digest or a legacy inline blob."""
    digest = spec.get("share_digest")
    if digest is None:
        return import_key_share(spec["share"])
    resolved = _worker_blobs.get_object(digest, import_key_share)
    if resolved is None:
        raise BlobCacheMissError([digest])
    return resolved


def _operation(spec: dict, include_share: bool) -> ShareOperation:
    """The spec's adapter; verification-only unless ``include_share``."""
    request = OperationRequest(spec["kind"], spec["data"])
    if include_share:
        scheme_name, key_share = _resolve_share(spec)
        return make_operation(scheme_name, key_share.public, key_share, request)
    scheme_name, public = _resolve_public(spec)
    return make_operation(scheme_name, public, None, request)


# ---------------------------------------------------------------------------
# The pool tasks.
# ---------------------------------------------------------------------------


def create_share(spec: dict, blobs: dict | None = None) -> bytes:
    """Compute this party's partial result (do_round's crypto) off-loop.

    Returns the serialized share; the parent process hands it to the
    operation's own-share memo (``supply_own_share``).
    """
    if blobs:
        install_blob(list(blobs.items()))
    _check_spec(spec, include_share=True)
    return _operation(spec, include_share=True).create_own_share()


def create_share_batch(
    specs: list[dict], blobs: dict | None = None
) -> list[tuple[str, object]]:
    """Cross-request batch of :func:`create_share` in one pool round trip.

    The coalescing admission layer (``core.orchestration.coalescing``)
    merges concurrent instances' share creations into one task so the
    per-task pickle/IPC/scheduling overhead is paid once per window, not
    once per request.  Results are per-index tagged ``("ok", payload)`` or
    ``("error", reason)`` — one bad request must not fail its batchmates.
    Digest misses are raised for the *whole* batch up front so the pool's
    single retry re-runs it complete.
    """
    if blobs:
        install_blob(list(blobs.items()))
    missing: set[str] = set()
    for spec in specs:
        missing.update(_missing_digests(spec, include_share=True))
    if missing:
        raise BlobCacheMissError(sorted(missing))
    results: list[tuple[str, object]] = []
    for spec in specs:
        try:
            results.append(("ok", create_share(spec)))
        except Exception as exc:  # noqa: BLE001 - tagged per item
            results.append(("error", str(exc) or type(exc).__name__))
    return results


def verify_shares(
    spec: dict, payloads: list[bytes], blobs: dict | None = None
) -> list[str | None]:
    """Batched share admission: verify queued peer payloads in one task.

    Verdict list is index-aligned with ``payloads``: ``None`` for a valid
    share, a reason string for a rejected one
    (:meth:`ShareOperation.verify_payloads`).
    """
    if blobs:
        install_blob(list(blobs.items()))
    _check_spec(spec, include_share=False)
    return _operation(spec, include_share=False).verify_payloads(payloads)


def verify_shares_multi(
    groups: list[tuple[dict, list[bytes]]], blobs: dict | None = None
) -> list[list[str | None]]:
    """Cross-request batch of :func:`verify_shares` in one round trip.

    ``groups`` pairs each instance's spec with its drained payloads; the
    result is index-aligned verdict lists.  Digest misses are raised for
    the whole batch up front, like :func:`create_share_batch`.
    """
    if blobs:
        install_blob(list(blobs.items()))
    missing: set[str] = set()
    for spec, _ in groups:
        missing.update(_missing_digests(spec, include_share=False))
    if missing:
        raise BlobCacheMissError(sorted(missing))
    return [verify_shares(spec, list(payloads)) for spec, payloads in groups]
