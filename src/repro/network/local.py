"""In-process transport: N nodes inside one asyncio loop.

The :class:`LocalHub` connects any number of :class:`LocalP2P` endpoints and
can inject per-link latency through a ``latency(src, dst) -> seconds``
function, which lets integration tests reproduce the paper's local
(≈0.65 ms RTT) and global (≈100/43 ms RTT) deployments without leaving one
process.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from ..errors import NetworkError
from ..telemetry import ChannelMetrics
from .interfaces import MessageHandler, P2PNetwork

LatencyFn = Callable[[int, int], float]


class LocalHub:
    """Shared medium connecting local endpoints."""

    def __init__(self, latency: LatencyFn | None = None):
        self._endpoints: dict[int, "LocalP2P"] = {}
        self._latency = latency
        self._tasks: set[asyncio.Task] = set()

    def endpoint(self, node_id: int) -> "LocalP2P":
        """Create (or fetch) the endpoint for ``node_id``."""
        if node_id not in self._endpoints:
            self._endpoints[node_id] = LocalP2P(self, node_id)
        return self._endpoints[node_id]

    def node_ids(self) -> list[int]:
        return sorted(self._endpoints)

    def _deliver(self, src: int, dst: int, data: bytes) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise NetworkError(f"no endpoint for node {dst}")
        delay = self._latency(src, dst) if self._latency else 0.0
        task = asyncio.get_running_loop().create_task(
            endpoint._receive_after(delay, src, data)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def drain(self) -> None:
        """Wait until all in-flight deliveries completed (test helper)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


class LocalP2P(P2PNetwork):
    """One node's view of the hub."""

    def __init__(self, hub: LocalHub, node_id: int):
        self.node_id = node_id
        self._hub = hub
        self._handler: MessageHandler | None = None
        self._metrics = ChannelMetrics(node_id, "local")

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    async def stop(self) -> None:
        # A stopped node is gone from the medium: frames sent to it are
        # lost, uncounted, until a restarted node attaches a new handler.
        self._handler = None

    def peer_ids(self) -> list[int]:
        return [i for i in self._hub.node_ids() if i != self.node_id]

    async def send(self, recipient: int, data: bytes) -> None:
        if recipient == self.node_id:
            raise NetworkError("self-send is not a network operation")
        with self._metrics.time_send():
            self._hub._deliver(self.node_id, recipient, data)
        self._metrics.sent(len(data))

    async def broadcast(self, data: bytes) -> None:
        for peer in self.peer_ids():
            with self._metrics.time_send():
                self._hub._deliver(self.node_id, peer, data)
            self._metrics.sent(len(data))

    async def _receive_after(self, delay: float, sender: int, data: bytes) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        handler = self._handler
        if handler is None:
            return
        self._metrics.received(len(data))
        await handler(sender, data)
