"""The network manager module: wires transports to the core layer.

"A network manager module sets up the needed components based on the
configuration provided at start-up" (§3.6).  The manager multiplexes one
underlying full-mesh transport into tagged channels (protocol traffic, TOB
internal traffic) and exposes exactly one operation to the core layer:
dispatch a :class:`ProtocolMessage` over the channel the protocol requested.

Every inbound frame is peer-controlled bytes.  A frame that does not decode,
names no channel, or is not one its link sender may send is dropped and
counted in ``repro_network_decode_failures_total``; the link reads on.
"""

from __future__ import annotations

import logging
from typing import Awaitable, Callable

from ..core.messages import Channel, ProtocolMessage
from ..errors import NetworkError, SerializationError
from ..telemetry import counter
from .interfaces import MessageHandler, P2PNetwork, TotalOrderBroadcast
from .tob import SequencerTob

logger = logging.getLogger(__name__)

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
    "Inbound frames dropped because they failed to decode or their link "
    "sender may not send them (byzantine or misconfigured peers).",
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
    """Splits one transport into tag-addressed channels.

    A channel handler refuses a frame by raising :class:`SerializationError`
    (it does not decode) or :class:`NetworkError` (its link sender may not
    send it); the multiplexer drops and counts it like an empty or untagged
    frame, so one bad frame never unwinds the transport's read loop.
    """

    def __init__(self, base: P2PNetwork):
        self.base = base
        self.handlers: dict[int, MessageHandler] = {}
        self._decode_failures = _DECODE_FAILURES.labels(str(base.node_id))
        base.set_handler(self._dispatch)

    def channel(self, tag: int) -> _ChannelTransport:
        return _ChannelTransport(self, tag)

    async def _dispatch(self, sender: int, data: bytes) -> None:
        handler = self.handlers.get(data[0]) if data else None
        if handler is None:
            self.drop(sender, "empty frame or unknown channel tag")
            return
        try:
            await handler(sender, data[1:])
        except (SerializationError, NetworkError) as exc:
            self.drop(sender, str(exc))

    def drop(self, sender: int, reason: str) -> None:
        logger.warning("dropping frame from node %d: %s", sender, reason)
        self._decode_failures.inc()


class NetworkManager:
    """Per-node facade over P2P and TOB communication."""

    def __init__(
        self, transport: P2PNetwork, tob: TotalOrderBroadcast | None = None
    ):
        self._transport = transport
        self.node_id = transport.node_id
        self._mux = _Multiplexer(transport)
        self._p2p = self._mux.channel(_TAG_PROTOCOL)
        # A host may supply its own TOB (a proxy to its consensus, Fig. 1);
        # otherwise the built-in sequencer rides a channel of the transport.
        self._owns_tob_transport = tob is None
        self._tob = tob or SequencerTob(self._mux.channel(_TAG_TOB))
        self._handler: ProtocolHandler | None = None
        self._dispatched_p2p = _DISPATCHED.labels(str(self.node_id), "p2p")
        self._dispatched_tob = _DISPATCHED.labels(str(self.node_id), "tob")
        self._delivered = _DELIVERED.labels(str(self.node_id))
        self._p2p.set_handler(self._deliver)
        self._tob.set_handler(self._deliver)

    def peer_ids(self) -> list[int]:
        return self._transport.peer_ids()

    def set_protocol_handler(self, handler: ProtocolHandler) -> None:
        self._handler = handler

    async def start(self) -> None:
        await self._transport.start()
        if not self._owns_tob_transport:
            await self._tob.start()

    async def stop(self) -> None:
        if not self._owns_tob_transport:
            await self._tob.stop()
        await self._transport.stop()

    # -- outgoing ------------------------------------------------------------

    async def dispatch(self, message: ProtocolMessage) -> None:
        """Send a protocol message over its requested channel."""
        data = message.to_bytes()
        if message.channel is Channel.TOB:
            self._dispatched_tob.inc()
            await self._tob.submit(data)
        elif message.is_directed():
            self._dispatched_p2p.inc()
            await self._p2p.send(message.recipient, data)
        else:
            self._dispatched_p2p.inc()
            await self._p2p.broadcast(data)

    # -- incoming -----------------------------------------------------------------

    async def _deliver(self, sender: int, data: bytes) -> None:
        """Hand one P2P or TOB-ordered message up to the core layer.

        A byzantine peer can put arbitrary bytes on the wire; a parse error
        must cost the receiver one counter increment, not an exception that
        unwinds the transport's read loop or a TOB delivery run.
        """
        try:
            message = ProtocolMessage.from_bytes(data)
        except Exception:  # noqa: BLE001 - arbitrary bytes fail arbitrarily
            self._mux.drop(sender, "undecodable protocol message")
            return
        if message.is_directed() and message.recipient != self.node_id:
            # TOB hands every ordered message to every node, and a peer
            # can misaddress a P2P frame: only the addressee takes it.
            return
        self._delivered.inc()
        if self._handler is not None:
            await self._handler(message)
