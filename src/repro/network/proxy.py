"""Proxy modules: delegate communication to an already-running host platform.

"The concrete implementation of network components can either be an actual
networking module or a proxy module that delegates the operations to a
remote node" (§3.6).  A proxy speaks a small JSON-lines RPC to the host's
communication endpoint: the client interface inserts messages into the
host's network and the server interface collects messages from it —
mirroring the gRPC pair described in the paper.

:class:`HostPlatformBridge` is our reference host-side implementation: it
exposes that endpoint on top of any of our own transports, closing the loop
so the proxies can be exercised end-to-end in tests (one process plays the
"blockchain node", the Thetacrypt node attaches to it).
"""

from __future__ import annotations

import asyncio
import json

from ..errors import NetworkError
from ..serialization import hexlify
from .interfaces import MessageHandler, P2PNetwork, TotalOrderBroadcast
from .tcp import _MAX_FRAME

#: Stream limit of both ends of a proxy link: a line carries one frame of
#: up to the TCP transport's ``_MAX_FRAME`` bytes, written as hex, plus its
#: JSON envelope (method or event, peer id, newline; under 256 bytes).
LINE_LIMIT = 2 * _MAX_FRAME + 256


async def _write_line(writer: asyncio.StreamWriter, obj: dict) -> None:
    writer.write(json.dumps(obj).encode("utf-8") + b"\n")
    await writer.drain()


# -- reading lines -------------------------------------------------------------
# Every reader drops a line that is not a JSON object carrying its kind's
# fields with their types, and reads on: one bad line must not end a link.

#: The fields of an event line (``"event"`` is "p2p" or "tob").
_EVENT = {"event": str, "sender": int, "data": bytes}

#: The fields of each request line, by its ``"method"``.
_REQUESTS = {
    "attach": {"node": int},
    "attach_tob": {"node": int},
    "p2p_send": {"recipient": int, "data": bytes},
    "p2p_broadcast": {"data": bytes},
    "tob_submit": {"data": bytes},
}


async def _lines(reader: asyncio.StreamReader):
    """The lines ``reader`` yields until EOF; one longer than the reader's
    limit is skipped (its tail arrives as a line of its own, not JSON)."""
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            continue
        if not line:
            return
        yield line


def _json_object(line: bytes) -> dict | None:
    try:
        value = json.loads(line)
    except (ValueError, RecursionError):  # bad JSON, bad UTF-8, too deep
        return None
    return value if isinstance(value, dict) else None


def _fields(obj: dict | None, spec: dict) -> dict | None:
    """``obj``'s fields named in ``spec``, hex ``bytes`` decoded, or None
    if one is missing or of another type (a bool is not an int here)."""
    if obj is None:
        return None
    fields = {}
    for name, kind in spec.items():
        value = obj.get(name)
        if kind is bytes:
            if not isinstance(value, str):
                return None
            try:
                value = bytes.fromhex(value)
            except ValueError:
                return None
        elif type(value) is not kind:
            return None
        fields[name] = value
    return fields


async def _listen(reader: asyncio.StreamReader, kind: str, component) -> None:
    """Hand each well-formed ``kind`` event line to ``component``'s handler."""
    async for line in _lines(reader):
        event = _fields(_json_object(line), _EVENT)
        if event is not None and event["event"] == kind and component._handler:
            await component._handler(event["sender"], event["data"])


class P2PProxy(P2PNetwork):
    """P2P component that forwards through a host platform's endpoint."""

    def __init__(self, node_id: int, host: str, port: int, peer_count: int):
        self.node_id = node_id
        self._host = host
        self._port = port
        self._peer_count = peer_count
        self._handler: MessageHandler | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._listen_task: asyncio.Task | None = None

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    def peer_ids(self) -> list[int]:
        return [i for i in range(1, self._peer_count + 1) if i != self.node_id]

    async def start(self) -> None:
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=LINE_LIMIT
        )
        self._writer = writer
        await _write_line(writer, {"method": "attach", "node": self.node_id})
        self._listen_task = asyncio.get_running_loop().create_task(
            _listen(reader, "p2p", self)
        )

    async def stop(self) -> None:
        if self._listen_task is not None:
            self._listen_task.cancel()
        if self._writer is not None:
            self._writer.close()

    async def _call(self, obj: dict) -> None:
        if self._writer is None:
            raise NetworkError("P2P proxy not started")
        await _write_line(self._writer, obj)

    async def send(self, recipient: int, data: bytes) -> None:
        await self._call(
            {"method": "p2p_send", "recipient": recipient, "data": hexlify(data)}
        )

    async def broadcast(self, data: bytes) -> None:
        await self._call({"method": "p2p_broadcast", "data": hexlify(data)})


class TobProxy(TotalOrderBroadcast):
    """TOB component that rides the host platform's atomic broadcast."""

    def __init__(self, node_id: int, host: str, port: int):
        self._node_id = node_id
        self._host = host
        self._port = port
        self._handler: MessageHandler | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._listen_task: asyncio.Task | None = None

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    async def start(self) -> None:
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=LINE_LIMIT
        )
        self._writer = writer
        await _write_line(writer, {"method": "attach_tob", "node": self._node_id})
        self._listen_task = asyncio.get_running_loop().create_task(
            _listen(reader, "tob", self)
        )

    async def stop(self) -> None:
        if self._listen_task is not None:
            self._listen_task.cancel()
        if self._writer is not None:
            self._writer.close()

    async def submit(self, data: bytes) -> None:
        if self._writer is None:
            raise NetworkError("TOB proxy not started")
        await _write_line(
            self._writer, {"method": "tob_submit", "data": hexlify(data)}
        )


class HostPlatformBridge:
    """Host-side endpoint: bridges attached proxies onto real transports.

    One bridge per "host platform node"; it owns a P2P transport (and
    optionally a TOB component) in the host's stack and relays traffic to
    and from the locally attached Thetacrypt proxies.
    """

    def __init__(
        self,
        listen_host: str,
        listen_port: int,
        transport: P2PNetwork,
        tob: TotalOrderBroadcast | None = None,
    ):
        self._listen_host = listen_host
        self._listen_port = listen_port
        self._transport = transport
        self._tob = tob
        self._server: asyncio.AbstractServer | None = None
        self._p2p_clients: list[asyncio.StreamWriter] = []
        self._tob_clients: list[asyncio.StreamWriter] = []
        transport.set_handler(self._on_p2p)
        if tob is not None:
            tob.set_handler(self._on_tob)

    async def start(self) -> None:
        await self._transport.start()
        self._server = await asyncio.start_server(
            self._on_client, self._listen_host, self._listen_port, limit=LINE_LIMIT
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._transport.stop()

    async def _on_p2p(self, sender: int, data: bytes) -> None:
        for writer in self._p2p_clients:
            await _write_line(
                writer, {"event": "p2p", "sender": sender, "data": hexlify(data)}
            )

    async def _on_tob(self, sender: int, data: bytes) -> None:
        for writer in self._tob_clients:
            await _write_line(
                writer, {"event": "tob", "sender": sender, "data": hexlify(data)}
            )

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._client_loop(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            # Loop teardown or a proxy that vanished: nothing to clean up
            # beyond dropping the connection.
            pass
        finally:
            # A gone proxy receives no more events.
            for clients in (self._p2p_clients, self._tob_clients):
                if writer in clients:
                    clients.remove(writer)

    async def _client_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async for line in _lines(reader):
            request = _json_object(line)
            method = request.get("method") if request is not None else None
            spec = _REQUESTS.get(method) if isinstance(method, str) else None
            fields = _fields(request, spec) if spec is not None else None
            if fields is None:
                continue
            try:
                await self._serve(method, fields, writer)
            except NetworkError:
                continue  # the transport refused it (self-send, no such node)

    async def _serve(
        self, method: str, fields: dict, writer: asyncio.StreamWriter
    ) -> None:
        if method == "attach" and writer not in self._p2p_clients:
            self._p2p_clients.append(writer)
        elif method == "attach_tob" and writer not in self._tob_clients:
            self._tob_clients.append(writer)
        elif method == "p2p_send":
            await self._transport.send(fields["recipient"], fields["data"])
        elif method == "p2p_broadcast":
            await self._transport.broadcast(fields["data"])
        elif method == "tob_submit" and self._tob is not None:
            await self._tob.submit(fields["data"])
