"""Protocol instance bookkeeping: status, timestamps, results."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from ...errors import ProtocolAbortedError, ProtocolError


class InstanceStatus(enum.Enum):
    """Lifecycle of a protocol instance (creation → progression → termination)."""

    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class InstanceRecord:
    """What the instance manager tracks about one protocol instance."""

    instance_id: str
    scheme: str
    status: InstanceStatus = InstanceStatus.CREATED
    created_at: float = field(default_factory=time.monotonic)
    finished_at: float | None = None
    result: bytes | None = None
    error: str | None = None
    #: Structured abort classification set by the executor on failure:
    #: ``timeout`` / ``insufficient_shares`` / ``byzantine_detected`` /
    #: ``aborted`` / ``internal``, plus ``crash_recovery`` for instances
    #: that were in-flight when the node died (None while not failed).
    abort_reason: str | None = None
    #: Telemetry trace recorded by the executor (per-round spans, per-hop
    #: events); set when the instance starts, reported via the status RPC.
    trace: object | None = None

    def trace_report(self) -> dict | None:
        """JSON-serialisable per-round/per-hop breakdown (None if untraced)."""
        if self.trace is None:
            return None
        return self.trace.report()

    def outcome(self) -> bytes:
        """The result of a terminated instance; raises its structured abort."""
        if self.status is InstanceStatus.FINISHED:
            return self.result
        raise ProtocolAbortedError(
            self.error or f"instance {self.instance_id} aborted",
            self.abort_reason or "aborted",
        )

    def mark_running(self) -> None:
        self.status = InstanceStatus.RUNNING

    def mark_finished(self, result: bytes) -> None:
        if self.status in (InstanceStatus.FINISHED, InstanceStatus.FAILED):
            raise ProtocolError(f"instance {self.instance_id} already terminated")
        self.status = InstanceStatus.FINISHED
        self.result = result
        self.finished_at = time.monotonic()

    def mark_failed(self, error: str, reason: str = "aborted") -> None:
        if self.status in (InstanceStatus.FINISHED, InstanceStatus.FAILED):
            raise ProtocolError(f"instance {self.instance_id} already terminated")
        self.status = InstanceStatus.FAILED
        self.error = error
        self.abort_reason = reason
        self.finished_at = time.monotonic()

    @property
    def latency(self) -> float | None:
        """Server-side latency (creation → termination), the paper's metric."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at
