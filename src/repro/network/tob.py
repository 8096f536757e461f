"""Total-order broadcast: a minimal sequencer-based implementation.

Thetacrypt treats the TOB channel as a black box provided by the host
platform (a blockchain's consensus, §3.6).  For standalone deployments this
module supplies a simple sequencer: node 1 stamps submissions
with consecutive sequence numbers and re-broadcasts them; every node buffers
and delivers in stamp order, so all nodes observe the same message sequence.

A submission's origin is its link sender, and only stamps the sequencer
sends are taken: no other peer can write into the order another node
delivers.
"""

from __future__ import annotations

from ..errors import NetworkError, SerializationError
from ..serialization import Reader, encode_bytes, encode_int
from ..telemetry import ChannelMetrics
from .interfaces import MessageHandler, P2PNetwork, TotalOrderBroadcast

_SUBMIT = 0
_ORDERED = 1

#: The node that stamps every built-in TOB's order.
SEQUENCER = 1


class SequencerTob(TotalOrderBroadcast):
    """Sequencer-stamped total order over a P2P transport."""

    def __init__(self, transport: P2PNetwork):
        self._transport = transport
        self._handler: MessageHandler | None = None
        self._next_stamp = 0  # sequencer state
        self._next_delivery = 0
        self._pending: dict[int, tuple[int, bytes]] = {}
        self._metrics = ChannelMetrics(transport.node_id, "tob")
        transport.set_handler(self._on_frame)

    @property
    def is_sequencer(self) -> bool:
        return self._transport.node_id == SEQUENCER

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    async def start(self) -> None:
        await self._transport.start()

    async def stop(self) -> None:
        await self._transport.stop()

    # -- submission -----------------------------------------------------------

    async def submit(self, data: bytes) -> None:
        frame = encode_int(_SUBMIT) + encode_bytes(data)
        with self._metrics.time_send():
            if self.is_sequencer:
                await self._sequence(self._transport.node_id, data)
            else:
                await self._transport.send(SEQUENCER, frame)
        self._metrics.sent(len(data))

    # -- sequencer side ------------------------------------------------------------

    async def _sequence(self, origin: int, data: bytes) -> None:
        stamp = self._next_stamp
        self._next_stamp += 1
        frame = (
            encode_int(_ORDERED)
            + encode_int(stamp)
            + encode_int(origin)
            + encode_bytes(data)
        )
        await self._transport.broadcast(frame)
        await self._on_ordered(stamp, origin, data)

    # -- delivery ----------------------------------------------------------------

    async def _on_frame(self, sender: int, frame: bytes) -> None:
        """Take one frame from link peer ``sender``.

        Raises :class:`SerializationError` for a frame that does not decode
        and :class:`NetworkError` for one ``sender`` may not send; the
        network manager's multiplexer drops and counts both.
        """
        reader = Reader(frame)
        kind = reader.read_int()
        if kind == _SUBMIT:
            data = reader.read_bytes()
            reader.finish()
            if not self.is_sequencer:
                raise NetworkError(
                    f"TOB submission from node {sender} to a non-sequencer"
                )
            await self._sequence(sender, data)
        elif kind == _ORDERED:
            stamp = reader.read_int()
            origin = reader.read_int()
            data = reader.read_bytes()
            reader.finish()
            if sender != SEQUENCER:
                raise NetworkError(
                    f"TOB stamp {stamp} from node {sender}, not the sequencer"
                )
            await self._on_ordered(stamp, origin, data)
        else:
            raise SerializationError(f"unknown TOB frame kind {kind}")

    async def _on_ordered(self, stamp: int, origin: int, data: bytes) -> None:
        self._pending[stamp] = (origin, data)
        while self._next_delivery in self._pending:
            deliver_origin, deliver_data = self._pending.pop(self._next_delivery)
            self._next_delivery += 1
            self._metrics.received(len(deliver_data))
            if self._handler is not None:
                await self._handler(deliver_origin, deliver_data)
