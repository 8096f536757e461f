"""The instance manager: creation, progression, and termination tracking.

"Its main component is the instance manager that keeps track of the
instances and is responsible for managing the state of every new instance"
(§3.5).  The manager also owns the message backlog: protocol messages can
arrive from fast peers *before* the local node has created the matching
instance (the request races the first share), so undeliverable messages are
buffered and drained at creation time.

Durability (docs/robustness.md, "Durability & recovery"): with a
``journal`` attached, every instance lifecycle transition (submitted /
finalized / aborted) is appended to the write-ahead log before or as it
happens, and finalized results additionally go to the durable ``results``
cache — after a crash, :meth:`restore_finished` / :meth:`restore_aborted`
rebuild the records a restarted node must be able to answer for.

Overload shedding: ``max_pending`` bounds the number of concurrently
active instances; excess submissions are rejected *before* an executor is
created, with a structured ``overloaded`` error carrying a retry-after
hint, so a saturated node degrades into fast rejections instead of a
growing pile of doomed timeouts.
"""

from __future__ import annotations

import asyncio
import logging
from collections import defaultdict
from typing import Callable

from ...errors import ProtocolAbortedError, ProtocolError, RpcError
from ...telemetry import CoreMetrics, MetricRegistry, default_registry
from ..messages import ProtocolMessage
from ..tri import ThresholdRoundProtocol
from .executor import ProtocolExecutor, SendFn
from .instance import InstanceRecord, InstanceStatus

logger = logging.getLogger(__name__)

#: Upper bound on buffered early messages per instance; beyond this the
#: sender is either byzantine or the request was dropped locally.
_BACKLOG_LIMIT = 4096


class InstanceManager:
    """Tracks every protocol instance running on one node."""

    def __init__(
        self,
        party_id: int,
        send: SendFn,
        default_timeout: float | None = 60.0,
        registry: MetricRegistry | None = None,
        journal=None,
        results=None,
        max_pending: int | None = None,
        overload_retry_after: float = 0.25,
        crypto=None,
    ):
        self.party_id = party_id
        self._send = send
        self._default_timeout = default_timeout
        # The CryptoScheduler shared by every executor this manager
        # launches; None keeps all crypto inline on the event loop.
        self._crypto = crypto
        self.metrics = CoreMetrics(
            registry if registry is not None else default_registry()
        )
        self._journal = journal
        self._results = results
        self._max_pending = max_pending
        self._overload_retry_after = overload_retry_after
        self._executors: dict[str, ProtocolExecutor] = {}
        self._records: dict[str, InstanceRecord] = {}
        self._backlog: dict[str, list[ProtocolMessage]] = defaultdict(list)
        self._tasks: set[asyncio.Task] = set()
        #: Live executor count; kept explicitly (not derived from records)
        #: so the overload check stays O(1) on the submission hot path.
        self._active = 0

    # -- creation -------------------------------------------------------------

    def start_instance(
        self,
        protocol: ThresholdRoundProtocol | Callable[[], ThresholdRoundProtocol],
        scheme: str,
        timeout: float | None = None,
        instance_id: str | None = None,
    ) -> InstanceRecord:
        """Create and launch an instance; idempotent on instance id.

        Identical-payload requests derive identical instance ids
        (``derive_instance_id``), so the two idempotency branches below
        *are* the duplicate-request coalescing path: joining an instance
        already in flight, or answering from the durable result cache.
        Both folds are counted as ``repro_requests_coalesced_total``.

        ``protocol`` may be a zero-argument builder for the instance named
        ``instance_id``.  It runs only when this call creates the instance:
        after the idempotency and overload checks, so a duplicate request
        consumes nothing its builder would (a precomputed share, a nonce
        set), and before the ``submitted`` journal record, so a request
        the builder rejects leaves no trace.
        """
        if instance_id is None:
            instance_id = protocol.instance_id
        if instance_id in self._records:
            self.metrics.coalesced_requests.labels("inflight").inc()
            return self._records[instance_id]
        # Idempotency across restarts: a duplicate of a request finalized
        # in a previous process life is answered from the durable result
        # cache without re-running the protocol.
        if self._results is not None:
            cached = self._results.get(instance_id)
            if cached is not None:
                self.metrics.coalesced_requests.labels("result_cache").inc()
                return self.restore_finished(instance_id, cached[0], cached[1])
        if self._max_pending is not None and self._active >= self._max_pending:
            self.metrics.rejected.labels("overloaded").inc()
            raise RpcError(
                f"node overloaded: {self._active} instances pending "
                f"(limit {self._max_pending})",
                reason="overloaded",
                retry_after=self._overload_retry_after,
            )
        if not isinstance(protocol, ThresholdRoundProtocol):
            protocol = protocol()
        self._journal_event(
            {"event": "submitted", "id": instance_id, "scheme": scheme}
        )
        record = InstanceRecord(instance_id, scheme)
        executor = ProtocolExecutor(
            protocol,
            record,
            self._send,
            timeout=timeout if timeout is not None else self._default_timeout,
            metrics=self.metrics,
            crypto=self._crypto,
            on_terminal=lambda: self._release(instance_id),
        )
        self._records[instance_id] = record
        self._executors[instance_id] = executor
        self._active += 1
        self.metrics.inflight.inc()
        task = asyncio.get_running_loop().create_task(executor.run())
        self._tasks.add(task)
        task.add_done_callback(
            lambda t, instance_id=instance_id: self._on_task_done(t, instance_id)
        )
        # Drain messages that beat the request to this node.
        for message in self._backlog.pop(instance_id, []):
            executor.inbox.put_nowait(message)
        return record

    def _release(self, instance_id: str) -> None:
        """Stop counting an instance and drop what its executor pins.

        Called by the executor the moment its record turns terminal (so
        ``active_count`` is exact when a waiter on the result resumes) and
        again, as a no-op, when its task ends — which is what releases a
        cancelled executor.  Terminated instances must not pin state: the
        executor goes with everything it holds (protocol, decoded shares,
        inbox, last outgoing batch), as do backlog entries that raced in.
        The record alone answers result() and swallows residual shares
        from slow peers.
        """
        if self._executors.pop(instance_id, None) is None:
            return
        self._active -= 1
        self.metrics.inflight.dec()
        self._backlog.pop(instance_id, None)

    def _on_task_done(self, task: asyncio.Task, instance_id: str) -> None:
        self._tasks.discard(task)
        self._release(instance_id)
        record = self._records.get(instance_id)
        if record is None:
            return
        if record.status is InstanceStatus.FINISHED:
            if self._results is not None and record.result is not None:
                self._persist_guarded(
                    lambda: self._results.put(
                        instance_id, record.scheme, record.result
                    )
                )
            self._journal_event({"event": "finalized", "id": instance_id})
        elif record.status is InstanceStatus.FAILED:
            self._journal_event(
                {
                    "event": "aborted",
                    "id": instance_id,
                    "reason": record.abort_reason or "aborted",
                }
            )
        # A cancelled executor (node shutdown) leaves no terminal journal
        # record on purpose: replay classifies it as in-flight at crash
        # time and recovery marks it ``crash_recovery``.

    def _journal_event(self, record: dict) -> None:
        if self._journal is None:
            return
        self._persist_guarded(lambda: self._journal.append(record))

    @staticmethod
    def _persist_guarded(write) -> None:
        """Durability writes must not take down a live protocol instance;
        a full disk degrades the node to memory-only, loudly."""
        try:
            write()
        except Exception:  # noqa: BLE001 - log and keep serving
            logger.exception("durable-state write failed; continuing in-memory")

    # -- crash recovery --------------------------------------------------------

    def restore_finished(
        self, instance_id: str, scheme: str, result: bytes
    ) -> InstanceRecord:
        """Rebuild a finalized record from the durable result cache."""
        existing = self._records.get(instance_id)
        if existing is not None:
            return existing
        record = InstanceRecord.restored_finished(instance_id, scheme, result)
        self._records[instance_id] = record
        return record

    def restore_aborted(
        self, instance_id: str, scheme: str, reason: str = "crash_recovery"
    ) -> InstanceRecord:
        """Mark an instance that was in-flight at crash time as aborted."""
        existing = self._records.get(instance_id)
        if existing is not None:
            return existing
        record = InstanceRecord.restored_aborted(
            instance_id,
            scheme,
            f"instance {instance_id} was in flight when the node crashed",
            reason,
        )
        self._records[instance_id] = record
        self.metrics.aborts.labels(scheme, reason).inc()
        return record

    # -- message routing --------------------------------------------------------

    async def handle_network_message(self, message: ProtocolMessage) -> None:
        """Route an incoming protocol message to its instance (or buffer it)."""
        executor = self._executors.get(message.instance_id)
        if executor is not None:
            await executor.deliver(message)
            return
        if message.instance_id in self._records:
            # Terminal (finished, aborted, or restored after a crash): a
            # residual message from a slow peer; §4.5 discusses these.
            return
        backlog = self._backlog[message.instance_id]
        if len(backlog) >= _BACKLOG_LIMIT:
            logger.warning(
                "backlog overflow for unknown instance %s; dropping message",
                message.instance_id,
            )
            self.metrics.backlog_dropped.inc()
            return
        backlog.append(message)
        self.metrics.backlog_buffered.inc()

    # -- results ------------------------------------------------------------------

    async def result(self, instance_id: str) -> bytes:
        """Await the result of an instance (raises on abort/timeout).

        A record without an executor is terminal (the executor is released
        when its task ends; restored records never had one): finalized
        ones answer from their result, aborted ones re-raise their
        structured abort reason.
        """
        executor = self._executors.get(instance_id)
        if executor is None:
            record = self._records.get(instance_id)
            if record is not None and record.status is InstanceStatus.FINISHED:
                assert record.result is not None
                return record.result
            if record is not None and record.status is InstanceStatus.FAILED:
                raise ProtocolAbortedError(
                    record.error or f"instance {instance_id} aborted",
                    record.abort_reason or "aborted",
                )
            raise ProtocolError(f"unknown instance {instance_id!r}")
        return await asyncio.shield(executor.result_future)

    def record(self, instance_id: str) -> InstanceRecord:
        if instance_id not in self._records:
            raise ProtocolError(f"unknown instance {instance_id!r}")
        return self._records[instance_id]

    def records(self) -> list[InstanceRecord]:
        return list(self._records.values())

    @property
    def active_count(self) -> int:
        return self._active

    async def shutdown(self) -> None:
        """Cancel all running executors (node shutdown)."""
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, ProtocolAbortedError):
                pass
        self._backlog.clear()
