"""Asyncio TCP full-mesh transport for real multi-process deployments.

Frames are length-prefixed; each outgoing connection starts with a handshake
frame carrying the dialer's node id.  Connections are established lazily and
re-dialed with exponential backoff plus jitter, so node start order does not
matter and simultaneous re-dial storms decorrelate.

Reliability (§3.2 assumes reliable channels, so the transport has to earn
them): every send runs under a deadline; a send that fails — connection
refused, peer restarting, deadline exceeded — is pushed onto a bounded
per-peer resend queue and retried by a background flusher until the peer
returns or the transport stops.  Failures and retry outcomes are counted
(``repro_net_send_failures``, ``repro_net_resends_total``) so drops are
visible instead of silent.
"""

from __future__ import annotations

import asyncio
import logging
import random
from collections import deque

from ..errors import NetworkError
from ..telemetry import ChannelMetrics, counter
from .interfaces import MessageHandler, P2PNetwork

logger = logging.getLogger(__name__)

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024

#: Defaults for the dial/retry machinery (overridable per instance).
DIAL_RETRIES = 8
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
SEND_DEADLINE = 10.0
RESEND_LIMIT = 256

_SEND_FAILURES = counter(
    "repro_net_send_failures",
    "TCP sends that failed and were routed to the resend queue.",
    ("node",),
)
_RESENDS = counter(
    "repro_net_resends_total",
    "Resend-queue outcomes: delivered after retry, or dropped (queue "
    "overflow / transport stopped).",
    ("node", "outcome"),
)


def backoff_delay(
    attempt: int,
    rng: random.Random,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> float:
    """Exponential backoff with jitter: uniform in [d/2, d], d = base·2^k ≤ cap.

    The half-open jitter window keeps retries spread out (no thundering
    herd when n nodes lose the same peer) while preserving the exponential
    envelope the regression tests pin down.
    """
    ceiling = min(cap, base * (2**attempt))
    return ceiling * (0.5 + 0.5 * rng.random())


class TcpP2P(P2PNetwork):
    """Full-mesh TCP transport: one listener plus one dialed link per peer."""

    def __init__(
        self,
        node_id: int,
        listen_host: str,
        listen_port: int,
        peers: dict[int, tuple[str, int]],
        dial_retries: int = DIAL_RETRIES,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
        send_deadline: float = SEND_DEADLINE,
        resend_limit: int = RESEND_LIMIT,
    ):
        self.node_id = node_id
        self._listen_host = listen_host
        self._listen_port = listen_port
        self._peers = dict(peers)
        self._dial_retries = dial_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._send_deadline = send_deadline
        self._resend_limit = resend_limit
        self._handler: MessageHandler | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._dial_locks: dict[int, asyncio.Lock] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._accepted_writers: set[asyncio.StreamWriter] = set()
        self._resend_queues: dict[int, deque[bytes]] = {}
        self._flush_tasks: dict[int, asyncio.Task] = {}
        self._stopped = False
        self._rng = random.Random()
        self._metrics = ChannelMetrics(node_id, "tcp")
        node = str(node_id)
        self._send_failures = _SEND_FAILURES.labels(node)
        self._resent_delivered = _RESENDS.labels(node, "delivered")
        self._resent_dropped = _RESENDS.labels(node, "dropped")

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    def peer_ids(self) -> list[int]:
        return sorted(self._peers)

    async def start(self) -> None:
        self._stopped = False
        self._server = await asyncio.start_server(
            self._on_connection, self._listen_host, self._listen_port
        )

    async def stop(self) -> None:
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._flush_tasks.values()):
            task.cancel()
        if self._flush_tasks:
            await asyncio.gather(
                *self._flush_tasks.values(), return_exceptions=True
            )
        self._flush_tasks.clear()
        for queue in self._resend_queues.values():
            for _ in queue:
                self._resent_dropped.inc()
        self._resend_queues.clear()
        for writer in self._writers.values():
            writer.close()
        # Also sever accepted inbound connections: a stopped node must not
        # keep silently absorbing frames from peers that still hold an
        # established socket to it.
        for writer in list(self._accepted_writers):
            writer.close()
        self._accepted_writers.clear()
        for task in list(self._reader_tasks):
            task.cancel()
        self._writers.clear()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            handshake = await _read_frame(reader)
            sender = int.from_bytes(handshake, "big")
        except (asyncio.IncompleteReadError, NetworkError):
            writer.close()
            return
        self._accepted_writers.add(writer)
        task = asyncio.get_running_loop().create_task(
            self._read_loop(sender, reader)
        )
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)

        def close(_task: asyncio.Task, writer=writer) -> None:
            self._accepted_writers.discard(writer)
            writer.close()

        task.add_done_callback(close)

    async def _read_loop(self, sender: int, reader: asyncio.StreamReader) -> None:
        """Hand each frame from ``sender`` to the handler until the link ends.

        The link ends when the peer closes it, or at a length header over
        ``_MAX_FRAME``: the stream cannot be resynchronised past that, so
        the connection is closed and the peer's resend queue re-dials.
        """
        while True:
            try:
                frame = await _read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except NetworkError as exc:
                logger.warning("closing link from node %d: %s", sender, exc)
                return
            self._metrics.received(len(frame))
            if self._handler is not None:
                await self._handler(sender, frame)

    async def _writer_for(self, recipient: int) -> asyncio.StreamWriter:
        writer = self._writers.get(recipient)
        if writer is not None and not writer.is_closing():
            return writer
        lock = self._dial_locks.setdefault(recipient, asyncio.Lock())
        async with lock:
            writer = self._writers.get(recipient)
            if writer is not None and not writer.is_closing():
                return writer
            host, port = self._peers[recipient]
            last_error: Exception | None = None
            for attempt in range(self._dial_retries):
                try:
                    _, writer = await asyncio.open_connection(host, port)
                    break
                except OSError as exc:
                    last_error = exc
                    await asyncio.sleep(
                        backoff_delay(
                            attempt,
                            self._rng,
                            self._backoff_base,
                            self._backoff_cap,
                        )
                    )
            else:
                raise NetworkError(
                    f"cannot reach node {recipient} at {host}:{port}: {last_error}"
                )
            await _write_frame(writer, self.node_id.to_bytes(4, "big"))
            self._writers[recipient] = writer
            return writer

    async def _send_once(self, recipient: int, data: bytes) -> None:
        writer = await self._writer_for(recipient)
        await _write_frame(writer, data)

    async def send(self, recipient: int, data: bytes) -> None:
        if recipient not in self._peers:
            raise NetworkError(f"unknown peer {recipient}")
        try:
            with self._metrics.time_send():
                await asyncio.wait_for(
                    self._send_once(recipient, data), self._send_deadline
                )
            self._metrics.sent(len(data))
        except (ConnectionError, NetworkError, asyncio.TimeoutError) as exc:
            # The §3.2 model assumes reliable channels; a failed send is
            # therefore queued for retry, not dropped on the floor.
            logger.warning(
                "send to node %d failed (%s); queueing for resend",
                recipient,
                exc,
            )
            self._send_failures.inc()
            self._drop_writer(recipient)
            self._enqueue_resend(recipient, data)

    async def broadcast(self, data: bytes) -> None:
        await asyncio.gather(
            *(self.send(peer, data) for peer in self.peer_ids())
        )

    # -- resend machinery -----------------------------------------------------

    def _drop_writer(self, recipient: int) -> None:
        writer = self._writers.pop(recipient, None)
        if writer is not None:
            writer.close()

    def _enqueue_resend(self, recipient: int, data: bytes) -> None:
        if self._stopped:
            self._resent_dropped.inc()
            return
        queue = self._resend_queues.setdefault(recipient, deque())
        if len(queue) >= self._resend_limit:
            queue.popleft()  # bounded: shed the oldest frame, visibly
            self._resent_dropped.inc()
        queue.append(data)
        task = self._flush_tasks.get(recipient)
        if task is None or task.done():
            self._flush_tasks[recipient] = asyncio.get_running_loop().create_task(
                self._flush_loop(recipient)
            )

    async def _flush_loop(self, recipient: int) -> None:
        """Retry queued frames (FIFO) until the peer answers or we stop."""
        attempt = 0
        while not self._stopped:
            queue = self._resend_queues.get(recipient)
            if not queue:
                return
            try:
                await asyncio.wait_for(
                    self._send_once(recipient, queue[0]), self._send_deadline
                )
            except (ConnectionError, NetworkError, asyncio.TimeoutError, OSError):
                self._drop_writer(recipient)
                attempt += 1
                await asyncio.sleep(
                    backoff_delay(
                        attempt, self._rng, self._backoff_base, self._backoff_cap
                    )
                )
                continue
            frame = queue.popleft()
            attempt = 0
            self._metrics.sent(len(frame))
            self._resent_delivered.inc()


async def _write_frame(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(len(data).to_bytes(_LEN_BYTES, "big") + data)
    await writer.drain()


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    header = await reader.readexactly(_LEN_BYTES)
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise NetworkError(f"frame of {length} bytes exceeds limit")
    return await reader.readexactly(length)
