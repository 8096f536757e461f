"""The protocol executor: a generic asyncio driver for TRI protocols.

"The executor is designed to be generic and flexible, allowing the
integration of different TRI protocols.  It is responsible for ensuring
correct execution and proper termination of an instance" (§3.5).  The
executor never inspects scheme specifics: it forwards outgoing messages,
feeds incoming ones to :meth:`update`, and polls the two readiness
predicates.

Telemetry: the executor adopts the trace active at creation time (the RPC
handler's, when the instance was started by a request at this node),
records one span per TRI round, stamps outgoing messages with the trace id,
and feeds round durations / share accept counts into the core metrics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from typing import Awaitable, Callable

from ...errors import (
    CryptoError,
    DuplicateShareError,
    ProtocolAbortedError,
    SerializationError,
)
from ...telemetry import CoreMetrics, adopt_trace
from ..messages import ProtocolMessage
from ..tri import ThresholdRoundProtocol
from .instance import InstanceRecord

logger = logging.getLogger(__name__)

SendFn = Callable[[ProtocolMessage], Awaitable[None]]

#: When the round-progress watchdog fires, as a fraction of the instance
#: timeout: late enough that the first transmission had a fair chance,
#: early enough that the re-broadcast can still complete the quorum.
WATCHDOG_FRACTION = 0.5


class ProtocolExecutor:
    """Drives one protocol instance to termination."""

    def __init__(
        self,
        protocol: ThresholdRoundProtocol,
        record: InstanceRecord,
        send: SendFn,
        timeout: float | None = None,
        metrics: CoreMetrics | None = None,
        on_terminal: Callable[[], None] | None = None,
    ):
        self.protocol = protocol
        self.record = record
        self._send = send
        self._timeout = timeout
        self._metrics = metrics
        #: Called synchronously when the record turns terminal, before any
        #: waiter on the result resumes (the manager tables the outcome).
        self._on_terminal = on_terminal
        self.inbox: asyncio.Queue[ProtocolMessage] = asyncio.Queue()
        # Inherit the RPC handler's trace when one is active (the request
        # entered at this node); otherwise the instance gets its own trace
        # (the request entered at a peer and reached us as shares).
        self.trace = adopt_trace(f"instance:{protocol.instance_id}")
        self.record.trace = self.trace
        self._round_started: float | None = None
        # Graceful-degradation state: message outcomes feed the structured
        # abort reason, the last outgoing batch feeds the watchdog.
        self.accepted = 0
        self.rejected = 0
        self.duplicates = 0
        self._last_outgoing: list[ProtocolMessage] = []
        self._watchdog_task: asyncio.Task | None = None
        # Created lazily: the executor may be constructed before the event
        # loop runs, and get_event_loop() outside a running loop is both
        # deprecated and a cross-loop hazard.
        self._result_future: asyncio.Future[bytes] | None = None

    @property
    def result_future(self) -> "asyncio.Future[bytes]":
        if self._result_future is None:
            self._result_future = asyncio.get_running_loop().create_future()
        return self._result_future

    async def deliver(self, message: ProtocolMessage) -> None:
        """Called by the instance manager for every routed network message."""
        await self.inbox.put(message)

    async def run(self) -> None:
        """Execute until the protocol finalizes, aborts, or times out."""
        self.record.mark_running()
        if self._timeout is not None:
            self._watchdog_task = asyncio.get_running_loop().create_task(
                self._watchdog(self._timeout * WATCHDOG_FRACTION)
            )
        try:
            if self._timeout is not None:
                await asyncio.wait_for(self._run_inner(), self._timeout)
            else:
                await self._run_inner()
        except asyncio.TimeoutError:
            reason, detail = self._classify_timeout()
            self._fail(
                f"instance {self.protocol.instance_id} timed out ({detail})",
                reason,
            )
        except ProtocolAbortedError as exc:
            self._fail(
                f"protocol aborted: {exc}",
                getattr(exc, "reason", "aborted"),
            )
        except CryptoError as exc:
            self._fail(f"cryptographic failure: {exc}", "byzantine_detected")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the node
            logger.exception("executor crashed for %s", self.protocol.instance_id)
            self._fail(f"internal error: {exc}", "internal")
        finally:
            if self._watchdog_task is not None:
                self._watchdog_task.cancel()

    def _classify_timeout(self) -> tuple[str, str]:
        """Map a timeout onto the structured abort taxonomy.

        Rejected shares are evidence of byzantine peers; a quorum deficit
        with only clean messages means not enough parties answered; an
        apparent quorum that still timed out stays a plain ``timeout``.
        """
        have, need = self.protocol.progress()
        detail = f"{have}/{need} shares, {self.rejected} rejected"
        if self.rejected > 0:
            return "byzantine_detected", detail
        if have < need:
            return "insufficient_shares", detail
        return "timeout", detail

    async def _watchdog(self, delay: float) -> None:
        """Round-progress watchdog: one re-broadcast before the timeout.

        A dropped share on a lossy link is otherwise fatal to a one-shot
        protocol; re-sending this node's current-round messages once gives
        the quorum a second chance at a fraction of the timeout budget.
        """
        try:
            await asyncio.sleep(delay)
        except asyncio.CancelledError:
            return
        if self.protocol.finalized or not self._last_outgoing:
            return
        have, need = self.protocol.progress()
        if have >= need:
            return  # quorum already reached; finalization is in flight
        self.trace.event(
            "rebroadcast", round=self.protocol.round, have=have, need=need
        )
        if self._metrics is not None:
            self._metrics.rebroadcasts.labels(self.record.scheme).inc()
        for message in list(self._last_outgoing):
            try:
                await self._send(self._stamp(message))
            except Exception:  # noqa: BLE001 - best effort, transport may be down
                logger.warning(
                    "watchdog re-broadcast failed for %s",
                    self.protocol.instance_id,
                )
                return

    def _stamp(self, message: ProtocolMessage) -> ProtocolMessage:
        """Tag an outgoing message with this instance's trace id."""
        if message.trace_id:
            return message
        return dataclasses.replace(message, trace_id=self.trace.trace_id)

    def _close_round(self) -> None:
        """Record the span/duration of the round that just completed."""
        if self._round_started is None:
            return
        now = self.trace.elapsed()
        duration = time.perf_counter() - self._round_started
        round_number = self.protocol.round
        self.trace.add_span(
            f"round-{round_number}", now - duration, now, round=round_number
        )
        if self._metrics is not None:
            self._metrics.round_seconds.labels(
                self.record.scheme, str(round_number)
            ).observe(duration)
        self._round_started = None

    async def _start_round(self) -> None:
        self._round_started = time.perf_counter()
        self._last_outgoing = self.protocol.do_round()
        for message in self._last_outgoing:
            await self._send(self._stamp(message))

    async def _run_inner(self) -> None:
        await self._start_round()
        # Readiness is polled after every single message, so shares past
        # the quorum are never verified.
        while not self.protocol.is_ready_to_finalize():
            message = await self.inbox.get()
            self._admit(message)
            if self.protocol.is_ready_to_finalize():
                break
            if self.protocol.is_ready_for_next_round():
                self._close_round()
                self.protocol.advance_round()
                await self._start_round()
        self._close_round()
        self._finish(self.protocol.finalize())

    def _admit(self, message: ProtocolMessage) -> None:
        """Feed one message to update() and classify how it ended."""
        try:
            self.protocol.update(message)
        except ProtocolAbortedError:
            raise
        except DuplicateShareError:
            # Benign: transport-level duplicates and watchdog
            # re-broadcasts echo shares we already hold.  Not evidence
            # of byzantine behaviour.
            self.duplicates += 1
            self._note_message(message, "duplicate")
        except (CryptoError, SerializationError) as exc:
            # A bad share from a faulty party: drop it and keep waiting;
            # robust schemes terminate as long as t+1 honest shares arrive.
            self._reject(message, exc)
        else:
            self.accepted += 1
            self._note_message(message, "accepted")

    def _reject(self, message: ProtocolMessage, reason) -> None:
        """Count, log and trace a rejection against the parties at fault:
        the ones a combine-time check named (``reason.culprits``), which
        need not include the sender whose message triggered that check —
        or, for a per-share check, the sender itself."""
        culprits = getattr(reason, "culprits", ()) or (message.sender,)
        for culprit in culprits:
            logger.warning(
                "instance %s: rejected message from party %d: %s",
                self.protocol.instance_id,
                culprit,
                reason,
            )
            self.rejected += 1
            self._note_message(message, "rejected", sender=culprit)
        if message.sender not in culprits:
            self.accepted += 1
            self._note_message(message, "accepted")

    def _note_message(
        self, message: ProtocolMessage, outcome: str, sender: int | None = None
    ) -> None:
        """One received share: a hop event on the trace plus a counter."""
        self.trace.event(
            "hop",
            sender=message.sender if sender is None else sender,
            round=message.round,
            outcome=outcome,
            origin_trace=message.trace_id,
        )
        if self._metrics is not None:
            self._metrics.messages.labels(self.record.scheme, outcome).inc()

    def _finish(self, result: bytes) -> None:
        self.record.mark_finished(result)
        self._observe_termination("finished")
        if not self.result_future.done():
            self.result_future.set_result(result)

    def _fail(self, error: str, reason: str = "aborted") -> None:
        self._close_round()
        self.record.mark_failed(error, reason)
        self._observe_termination("failed")
        if self._metrics is not None:
            self._metrics.aborts.labels(self.record.scheme, reason).inc()
        if not self.result_future.done():
            self.result_future.set_exception(ProtocolAbortedError(error, reason))
            # The record, the log and the abort counter carry the failure;
            # an abort nobody awaits is not an "exception never retrieved"
            # (which asyncio would report once the released executor is
            # collected).  Waiters still get it raised.
            self.result_future.exception()

    def _observe_termination(self, status: str) -> None:
        if self._on_terminal is not None:
            self._on_terminal()
        if self._metrics is None:
            return
        self._metrics.instances.labels(self.record.scheme, status).inc()
        # Only successful instances enter the latency histogram (failures
        # and timeouts would skew the paper's server-side latency metric).
        if status == "finished" and self.record.latency is not None:
            self._metrics.instance_seconds.labels(self.record.scheme).observe(
                self.record.latency
            )