"""The network manager module: wires transports to the core layer.

"A network manager module sets up the needed components based on the
configuration provided at start-up" (§3.6).  The manager multiplexes one
underlying transport into tagged channels (protocol traffic, TOB internal
traffic), optionally inserts the gossip overlay, and exposes exactly one
operation to the core layer: dispatch a :class:`ProtocolMessage` over the
channel the protocol requested.
"""

from __future__ import annotations

import logging
from typing import Awaitable, Callable

from ..core.messages import Channel, ProtocolMessage
from ..errors import ConfigurationError, NetworkError
from ..telemetry import counter

logger = logging.getLogger(__name__)
from .gossip import GossipOverlay
from .interfaces import MessageHandler, P2PNetwork, TotalOrderBroadcast
from .tob import SequencerTob

# Logical protocol-message accounting, one level above the transports
# (which count wire frames/bytes): what the core handed down and what the
# core received back, per requested channel.
_DISPATCHED = counter(
    "repro_network_dispatch_total",
    "Protocol messages dispatched by the core, per requested channel.",
    ("node", "channel"),
)
_DELIVERED = counter(
    "repro_network_delivered_total",
    "Protocol messages delivered up to the core layer.",
    ("node",),
)
_DECODE_FAILURES = counter(
    "repro_network_decode_failures_total",
    "Inbound frames dropped because they failed to decode (corrupted or "
    "malformed protocol messages from byzantine peers).",
    ("node",),
)

_TAG_PROTOCOL = 0x01
_TAG_TOB = 0x02

ProtocolHandler = Callable[[ProtocolMessage], Awaitable[None]]


class _ChannelTransport(P2PNetwork):
    """One tagged channel of a multiplexed transport."""

    def __init__(self, mux: "_Multiplexer", tag: int):
        self._mux = mux
        self._tag = tag
        self.node_id = mux.base.node_id

    def set_handler(self, handler: MessageHandler) -> None:
        self._mux.handlers[self._tag] = handler

    def peer_ids(self) -> list[int]:
        return self._mux.base.peer_ids()

    async def send(self, recipient: int, data: bytes) -> None:
        await self._mux.base.send(recipient, bytes([self._tag]) + data)

    async def broadcast(self, data: bytes) -> None:
        await self._mux.base.broadcast(bytes([self._tag]) + data)

    async def start(self) -> None:  # lifecycle owned by the multiplexer
        return

    async def stop(self) -> None:
        return


class _Multiplexer:
    """Splits one transport into tag-addressed channels."""

    def __init__(self, base: P2PNetwork):
        self.base = base
        self.handlers: dict[int, MessageHandler] = {}
        base.set_handler(self._dispatch)

    def channel(self, tag: int) -> _ChannelTransport:
        return _ChannelTransport(self, tag)

    async def _dispatch(self, sender: int, data: bytes) -> None:
        if not data:
            raise NetworkError("empty frame")
        handler = self.handlers.get(data[0])
        if handler is not None:
            await handler(sender, data[1:])


class NetworkManager:
    """Per-node facade over P2P and (optional) TOB communication."""

    def __init__(
        self,
        transport: P2PNetwork,
        enable_tob: bool = False,
        gossip_fanout: int | None = None,
        tob: TotalOrderBroadcast | None = None,
    ):
        if gossip_fanout is not None:
            transport = GossipOverlay(transport, fanout=gossip_fanout)
        self._transport = transport
        self.node_id = transport.node_id
        self._mux = _Multiplexer(transport)
        self._p2p = self._mux.channel(_TAG_PROTOCOL)
        if tob is not None:
            # An externally provided TOB (e.g. a proxy to a host platform).
            self._tob: TotalOrderBroadcast | None = tob
            self._owns_tob_transport = False
        elif enable_tob:
            self._tob = SequencerTob(self._mux.channel(_TAG_TOB))
            self._owns_tob_transport = True
        else:
            self._tob = None
            self._owns_tob_transport = False
        self._handler: ProtocolHandler | None = None
        self._dispatched_p2p = _DISPATCHED.labels(str(self.node_id), "p2p")
        self._dispatched_tob = _DISPATCHED.labels(str(self.node_id), "tob")
        self._delivered = _DELIVERED.labels(str(self.node_id))
        self._decode_failures = _DECODE_FAILURES.labels(str(self.node_id))
        self._p2p.set_handler(self._on_p2p)
        if self._tob is not None:
            self._tob.set_handler(self._on_tob)

    @property
    def has_tob(self) -> bool:
        return self._tob is not None

    def peer_ids(self) -> list[int]:
        return self._transport.peer_ids()

    def set_protocol_handler(self, handler: ProtocolHandler) -> None:
        self._handler = handler

    async def start(self) -> None:
        await self._transport.start()
        if self._tob is not None and not self._owns_tob_transport:
            await self._tob.start()

    async def stop(self) -> None:
        if self._tob is not None and not self._owns_tob_transport:
            await self._tob.stop()
        await self._transport.stop()

    # -- outgoing ------------------------------------------------------------

    async def dispatch(self, message: ProtocolMessage) -> None:
        """Send a protocol message over its requested channel."""
        data = message.to_bytes()
        if message.channel is Channel.TOB:
            if self._tob is None:
                raise ConfigurationError(
                    "protocol requested TOB but the node has no TOB channel"
                )
            self._dispatched_tob.inc()
            await self._tob.submit(data)
        elif message.is_directed():
            self._dispatched_p2p.inc()
            await self._p2p.send(message.recipient, data)
        else:
            self._dispatched_p2p.inc()
            await self._p2p.broadcast(data)

    # -- incoming -----------------------------------------------------------------

    async def _on_p2p(self, sender: int, data: bytes) -> None:
        message = self._decode(sender, data)
        if message is not None:
            await self._deliver(message)

    async def _on_tob(self, sender: int, data: bytes) -> None:
        message = self._decode(sender, data)
        if message is not None:
            await self._deliver(message)

    def _decode(self, sender: int, data: bytes) -> ProtocolMessage | None:
        """Decode a frame, dropping (not crashing on) undecodable ones.

        A byzantine peer can put arbitrary bytes on the wire; a parse error
        must cost the receiver one counter increment, not an exception that
        unwinds the transport's read loop.
        """
        try:
            return ProtocolMessage.from_bytes(data)
        except Exception:  # noqa: BLE001 - arbitrary bytes fail arbitrarily
            logger.warning("dropping undecodable frame from node %d", sender)
            self._decode_failures.inc()
            return None

    async def _deliver(self, message: ProtocolMessage) -> None:
        if message.is_directed() and message.recipient != self.node_id:
            return  # directed message flooded through an overlay
        self._delivered.inc()
        if self._handler is not None:
            await self._handler(message)
