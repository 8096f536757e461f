"""The instance manager: creation, progression, and termination tracking.

"Its main component is the instance manager that keeps track of the
instances and is responsible for managing the state of every new instance"
(§3.5).  Per instance id the manager holds exactly one of two things: a
live executor, or an entry in the **outcome table**
(:class:`repro.storage.DurableResultCache`) — bounded, the same object
whether or not the node has a ``data_dir``, and after a restart already
holding what the last process life finished (docs/robustness.md,
"Durability & recovery").  Every "have I answered this?" question —
duplicate requests, ``result()``, the ``status`` RPC, residual shares from
slow peers — is one lookup there.

The manager also owns the message backlog: protocol messages can arrive
from fast peers *before* the local node has created the matching instance
(the request races the first share), so undeliverable messages are
buffered and drained at creation time.

Overload shedding: ``max_pending`` bounds the number of concurrently
active instances; excess submissions are rejected *before* an executor is
created, with a structured ``overloaded`` error carrying a retry-after
hint, so a saturated node degrades into fast rejections instead of a
growing pile of doomed timeouts.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
from typing import Callable

from ...errors import ProtocolAbortedError, ProtocolError, RpcError
from ...storage.results import DurableResultCache, Outcome
from ...telemetry import CoreMetrics, MetricRegistry, default_registry
from ..messages import ProtocolMessage
from ..tri import ThresholdRoundProtocol
from .executor import ProtocolExecutor, SendFn
from .instance import InstanceRecord, InstanceStatus

logger = logging.getLogger(__name__)

#: Upper bound on buffered early messages per instance; beyond this the
#: sender is either byzantine or the request was dropped locally.
_BACKLOG_LIMIT = 4096

#: Upper bound on the instance ids with buffered early messages: a message
#: beats its request by milliseconds, so past this many ids the oldest is a
#: request this node never sees or the tail of a forgotten control-plane run.
_BACKLOG_IDS = 1024


def derive_instance_id(
    kind: str, key_id: str, data: bytes, label: bytes = b""
) -> str:
    """Deterministic instance id shared by all nodes for the same request.

    The same request sent twice, or to every node, names one instance: the
    manager folds the repeat into it (in flight) or answers it from the
    outcome table.  ``key_id`` ends at a NUL byte, so the key manager
    refuses ids that contain one (:meth:`KeyManager.check_id`).
    """
    digest = hashlib.sha256(
        b"repro-instance" + kind.encode() + b"\x00" + key_id.encode() + b"\x00"
        + len(label).to_bytes(4, "big") + label + data
    ).hexdigest()
    return f"{kind}-{digest[:24]}"


class InstanceManager:
    """Tracks every protocol instance running on one node."""

    def __init__(
        self,
        party_id: int,
        send: SendFn,
        default_timeout: float | None = 60.0,
        registry: MetricRegistry | None = None,
        outcomes: DurableResultCache | None = None,
        max_pending: int | None = None,
        overload_retry_after: float = 0.25,
    ):
        self.party_id = party_id
        self._send = send
        self._default_timeout = default_timeout
        self.metrics = CoreMetrics(
            registry if registry is not None else default_registry()
        )
        #: The outcome table: memory-only unless the node supplies its durable one.
        self._outcomes = outcomes if outcomes is not None else DurableResultCache()
        self._max_pending = max_pending
        self._overload_retry_after = overload_retry_after
        self._executors: dict[str, ProtocolExecutor] = {}
        self._backlog: dict[str, list[ProtocolMessage]] = {}
        self._tasks: set[asyncio.Task] = set()
        #: Live executor count; kept explicitly (not derived from the
        #: executors) so it is exact the moment an instance terminates.
        self._active = 0

    # -- creation -------------------------------------------------------------

    def start_instance(
        self,
        protocol: ThresholdRoundProtocol | Callable[[], ThresholdRoundProtocol],
        scheme: str,
        timeout: float | None = None,
        instance_id: str | None = None,
        retain: bool = True,
    ) -> InstanceRecord:
        """Create and launch an instance; idempotent on instance id.

        Identical-payload requests derive identical instance ids
        (``derive_instance_id``), so the two idempotency branches below
        *are* the duplicate-request coalescing path: joining an instance
        already in flight, or answering from the outcome table.  Both
        folds are counted as ``repro_requests_coalesced_total``.

        ``protocol`` may be a zero-argument builder for the instance named
        ``instance_id``.  It runs only when this call creates the instance:
        after the idempotency and overload checks, so a duplicate request
        consumes nothing its builder would (a kg20 nonce set), and before the ``submitted`` log record, so a request the
        builder rejects leaves no trace.

        ``retain=False`` is for control-plane instances (refresh,
        frost-pre, dkg), where a repeat is not a duplicate of a request:
        nothing of theirs is logged or tabled, and they are forgotten when
        they end.
        """
        if instance_id is None:
            instance_id = protocol.instance_id
        executor = self._executors.get(instance_id)
        if executor is not None:
            self.metrics.coalesced_requests.labels("inflight").inc()
            return executor.record
        outcome = self._outcomes.get(instance_id)
        if outcome is not None:
            self.metrics.coalesced_requests.labels("result_cache").inc()
            return self._record_of(instance_id, outcome)
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
        if retain:
            self._persist_guarded(self._outcomes.submit, instance_id, scheme)
        record = InstanceRecord(instance_id, scheme)
        executor = ProtocolExecutor(
            protocol,
            record,
            self._send,
            timeout=timeout if timeout is not None else self._default_timeout,
            metrics=self.metrics,
            on_terminal=lambda: self._terminated(record, retain),
        )
        self._executors[instance_id] = executor
        self._active += 1
        self.metrics.inflight.inc()
        task = asyncio.get_running_loop().create_task(executor.run())
        self._tasks.add(task)
        task.add_done_callback(lambda t: self._on_task_done(t, instance_id))
        # Drain messages that beat the request to this node.
        for message in self._backlog.pop(instance_id, []):
            executor.inbox.put_nowait(message)
        return executor.record

    def _uncount(self) -> None:
        self._active -= 1
        self.metrics.inflight.dec()

    def _terminated(self, record: InstanceRecord, retain: bool) -> None:
        """The moment a record turns terminal, before any waiter on its
        result resumes: stop counting it, so ``active_count`` is exact, and
        table (and log) its outcome, so nothing is answered before it is
        durable."""
        self._uncount()
        instance_id = record.instance_id
        if not retain:
            return
        if record.status is InstanceStatus.FINISHED:
            self._persist_guarded(
                self._outcomes.put, instance_id, record.scheme, record.result, record
            )
        else:
            self._persist_guarded(
                self._outcomes.abort,
                instance_id,
                record.scheme,
                record.abort_reason,
                record.error,
                record,
            )

    def _on_task_done(self, task: asyncio.Task, instance_id: str) -> None:
        """Release the executor — with everything it pins (protocol, decoded
        shares, inbox, last outgoing batch); its outcome table entry from
        here on answers result() and swallows residual shares from slow
        peers."""
        self._tasks.discard(task)
        record = self._executors.pop(instance_id).record
        if record.finished_at is None:
            # A cancelled executor (node shutdown) leaves no terminal log
            # record on purpose: replay classifies it as in flight at
            # crash time and recovery marks it ``crash_recovery``.
            self._uncount()

    @staticmethod
    def _persist_guarded(write, *args) -> None:
        """Durability writes must not take down a live protocol instance;
        a full disk degrades the node to memory-only, loudly."""
        try:
            write(*args)
        except Exception:  # noqa: BLE001 - log and keep serving
            logger.exception("durable-state write failed; continuing in-memory")

    # -- message routing --------------------------------------------------------

    async def handle_network_message(self, message: ProtocolMessage) -> None:
        """Route an incoming protocol message to its instance (or buffer it)."""
        executor = self._executors.get(message.instance_id)
        if executor is not None:
            await executor.deliver(message)
            return
        if message.instance_id in self._outcomes:
            # Terminal (finished, aborted, or in flight at a crash): a
            # residual message from a slow peer; §4.5 discusses these.
            return
        backlog = self._backlog.get(message.instance_id)
        if backlog is None:
            if len(self._backlog) >= _BACKLOG_IDS:
                oldest = next(iter(self._backlog))
                self.metrics.backlog_dropped.inc(len(self._backlog.pop(oldest)))
            backlog = self._backlog[message.instance_id] = []
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

    def _record_of(self, instance_id: str, outcome: Outcome) -> InstanceRecord:
        """The outcome's record.  For one this process life did not run it
        is rebuilt, once, from what the log still says — terminated the
        moment it was created, so it adds nothing to the latency metric."""
        if outcome.record is None:
            failed = outcome.reason is not None
            record = outcome.record = InstanceRecord(
                instance_id,
                outcome.scheme,
                InstanceStatus.FAILED if failed else InstanceStatus.FINISHED,
                result=outcome.result,
                error=outcome.error,
                abort_reason=outcome.reason,
            )
            record.finished_at = record.created_at
        return outcome.record

    async def result(self, instance: InstanceRecord | str) -> bytes:
        """Await the result of an instance (raises on abort/timeout), named
        by id or by the record :meth:`start_instance` returned for it."""
        record = self.record(instance) if isinstance(instance, str) else instance
        if record.finished_at is not None:
            return record.outcome()
        return await asyncio.shield(self._executors[record.instance_id].result_future)

    def protocol(self, instance_id: str) -> ThresholdRoundProtocol:
        """The protocol a live instance runs — for a caller that joined it,
        not the one that caller built."""
        return self._executors[instance_id].protocol

    def record(self, instance_id: str) -> InstanceRecord:
        executor = self._executors.get(instance_id)
        if executor is not None:
            return executor.record
        outcome = self._outcomes.get(instance_id)
        if outcome is None:
            raise ProtocolError(f"unknown instance {instance_id!r}")
        return self._record_of(instance_id, outcome)

    def records(self) -> list[InstanceRecord]:
        """Every live instance plus every retained outcome (bounded)."""
        return [executor.record for executor in self._executors.values()] + [
            self._record_of(instance_id, outcome)
            for instance_id, outcome in self._outcomes.items()
            if instance_id not in self._executors
        ]

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
