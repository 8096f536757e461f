"""The crypto scheduler: one seam between the executor and the offload
machinery (worker pool, adaptive policy, cross-request coalescing).

The executor drives every protocol through the five TRI functions and
nothing else.  What the scheduler may do is run an operation's *pure*
crypto somewhere cheaper, ahead of the synchronous call that needs it,
and leave the result in one of the operation's two memo slots
(:class:`~repro.core.protocols.operations.ShareOperation`):

* before a round — this party's share payload, created in a pool worker
  (or inline here, timed, when the policy rules so), unless the precompute
  cache already supplied it;
* before an admission — verdicts for the dequeued peer payload and
  whatever is queued behind it, capped at the quorum deficit, from one
  (coalescable) worker task.

``do_round()`` / ``update()`` then run exactly as they do with no
scheduler at all; an empty memo *is* the inline path, so every pool
failure degrades by simply not filling it.  This module holds the only
copy of decide → run → observe → fall back inline.
"""

from __future__ import annotations

import asyncio
import time

from ...schemes.keystore import export_key_share, export_public_key
from ...telemetry import CoreMetrics, MetricRegistry
from ...workers import tasks
from ...workers.blobs import register_export
from ...workers.pool import CryptoPool, CryptoPoolUnavailable
from ..messages import ProtocolMessage
from ..protocols.operations import ShareOperation
from ..tri import ThresholdRoundProtocol
from .coalescing import CryptoCoalescer


def _spec(operation: ShareOperation, include_share: bool) -> dict:
    """Pickle-safe description that lets :mod:`repro.workers.tasks` rebuild
    ``operation`` in a worker.

    Key material is referenced by content digest, not carried inline: the
    export blob is serialized once per key object (memoized by
    :func:`repro.workers.blobs.register_export`), parked in the
    parent-side blob store, and shipped to each worker at most once.
    ``include_share`` adds the key share (``create_share`` needs it,
    ``verify_shares`` does not).
    """
    scheme = operation.scheme_name
    spec = {
        "scheme": scheme,
        "public_digest": register_export(
            "public",
            scheme,
            operation.public_key,
            lambda: export_public_key(scheme, operation.public_key),
        ),
        "kind": operation.request.kind,
        "data": operation.request.data,
    }
    if include_share:
        spec["share_digest"] = register_export(
            "share",
            scheme,
            operation.key_share,
            lambda: export_key_share(scheme, operation.key_share),
        )
    return spec


class CryptoScheduler:
    """Pre-fills share operations' memo slots through one node's pool."""

    def __init__(
        self,
        pool: CryptoPool,
        coalesce_window: float = 0.0,
        registry: MetricRegistry | None = None,
    ):
        self.pool = pool
        # Cross-request batching over the pool (docs/performance.md):
        # concurrent instances' share creations/verifications within the
        # window coalesce into one batched worker task.
        self._coalescer: CryptoCoalescer | None = None
        if coalesce_window > 0:
            self._coalescer = CryptoCoalescer(
                pool,
                window=coalesce_window,
                metrics=CoreMetrics(registry) if registry is not None else None,
            )

    def stats(self) -> dict:
        """``stats()["crypto_pool"]`` section (docs/observability.md)."""
        stats = self.pool.stats()
        if self._coalescer is not None:
            stats["coalescing"] = self._coalescer.stats()
        return stats

    async def _run(self, op: str, fn, args: tuple, inline, items: int = 1):
        """``fn(*args)`` in the pool, or ``inline()`` here: the policy rules.

        Both paths are timed and fed back to the pool's latency EWMAs, so
        the adaptive policy keeps learning whichever way it ruled.
        """
        if self.pool.decide(op).offload:
            started = time.perf_counter()
            try:
                if self._coalescer is not None:
                    result = await self._coalescer.run(op, fn, args)
                else:
                    result = await self.pool.run(op, fn, *args)
            except CryptoPoolUnavailable:
                pass  # degrade to inline; the pool counted the fallback
            else:
                self.pool.observe(op, "pool", time.perf_counter() - started, items)
                return result
        started = time.perf_counter()
        result = inline()
        self.pool.observe(op, "inline", time.perf_counter() - started, items)
        return result

    async def create(self, operation: ShareOperation) -> bytes:
        """``operation``'s own share payload (what ``own_share()`` returns)."""
        if not self.pool.enabled:
            return operation.own_share()
        return await self._run(
            f"{operation.scheme_name}:create_share",
            tasks.create_share,
            (_spec(operation, include_share=True),),
            operation.own_share,
        )

    async def before_round(self, protocol: ThresholdRoundProtocol) -> None:
        """Supply the own share of a share-operation protocol's round."""
        operation: ShareOperation | None = getattr(protocol, "operation", None)
        if operation is None or not self.pool.enabled or operation.has_own_share:
            return
        payload = await self.create(operation)
        if not operation.has_own_share:  # a worker created it, not own_share()
            operation.supply_own_share(payload)

    async def before_update(
        self,
        protocol: ThresholdRoundProtocol,
        message: ProtocolMessage,
        inbox: asyncio.Queue[ProtocolMessage],
    ) -> None:
        """Verify ``message`` and the peer payloads queued behind it in one
        task, and record the verdicts for ``update()`` to consume.

        Capped at the quorum deficit: sequential admission stops the moment
        the quorum forms, so shares past the deficit are never verified
        there and must not be paid for here either (on a 1-core host that
        surplus alone doubled per-request latency).  Own-broadcast echoes
        and operations admitting lazily need no per-share check at all.
        """
        operation: ShareOperation | None = getattr(protocol, "operation", None)
        if (
            operation is None
            or not self.pool.enabled
            or operation.admits_unverified
            or message.sender == operation.party_id
            or message.payload in operation.verdicts
        ):
            return
        queued = []
        while not inbox.empty():
            queued.append(inbox.get_nowait())
        for later in queued:
            inbox.put_nowait(later)
        # dict.fromkeys: a transport duplicate is one payload, one check.
        payloads = list(
            dict.fromkeys(
                m.payload
                for m in [message] + queued
                if m.sender != operation.party_id
                and m.payload not in operation.verdicts
            )
        )[: operation.threshold + 1 - operation.share_count]
        verdicts = await self._run(
            f"{operation.scheme_name}:verify_shares",
            tasks.verify_shares,
            (_spec(operation, include_share=False), payloads),
            lambda: operation.verify_payloads(payloads),
            items=len(payloads),
        )
        if len(verdicts) == len(payloads):  # misaligned verdicts admit nothing
            operation.verdicts.update(zip(payloads, verdicts))
