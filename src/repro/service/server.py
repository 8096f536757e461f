"""RPC server: the node-side of the service layer.

JSON-lines framing (one request object per line, matching response carrying
the same ``id``).  Two endpoint families, as in §3.4:

Protocol API (black-box threshold protocol execution):
  ``decrypt``, ``sign``, ``flip_coin``, ``precompute``, ``status``

Scheme API (direct primitive access):
  ``encrypt``, ``verify_signature``, ``list_keys``

Observability: every request is timed into the node's metric registry
(per-method latency histograms, in-flight gauge) and the protocol methods
run inside a fresh trace context that the executor inherits; the
``metrics`` method returns the node's Prometheus exposition in-band.

A line that is not strict UTF-8 JSON, not an object with a string
``method`` and an object ``params``, or whose parameters have the wrong
type is answered with ``error_reason: "bad_request"`` and counted as an
``error``; ``internal`` is left for failures of the node itself.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import TYPE_CHECKING

from ..errors import RpcError, ThetacryptError
from ..serialization import hexlify
from ..telemetry import RpcMetrics, start_trace

if TYPE_CHECKING:  # pragma: no cover
    from .node import ThetacryptNode

logger = logging.getLogger(__name__)

#: Methods that launch a threshold protocol instance (traced end to end).
_PROTOCOL_METHODS = frozenset(
    {"decrypt", "sign", "flip_coin", "run_dkg", "refresh_key", "precompute"}
)

#: Every method :meth:`RpcServer._dispatch_inner` serves.  Any other name
#: is counted under the one metric label ``<unknown>``: a label per string
#: a client sends would grow the registry and the scrape without bound.
_METHODS = _PROTOCOL_METHODS | {
    "status",
    "encrypt",
    "verify_signature",
    "list_keys",
    "node_stats",
    "metrics",
    "ping",
}

#: Per-line stream limit for the JSON-lines framing.  The in-band
#: ``metrics`` response carries a node's whole Prometheus exposition on
#: one line, which outgrows asyncio's 64 KiB default once label
#: cardinality accumulates (many schemes × ops × outcomes per counter).
RPC_LINE_LIMIT = 1 << 20

#: How long an over-limit connection is drained before it is closed.
_LINGER_S = 1.0

_REQUIRED = object()


def _bad_request(message: str) -> RpcError:
    return RpcError(message, reason="bad_request")


def _parse_request(line: bytes) -> dict:
    """The request object on one wire line (UTF-8 JSON, never a guess
    from a byte-order mark)."""
    try:
        request = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise _bad_request(f"request line is not UTF-8 JSON: {exc}") from None
    if type(request) is not dict:
        raise _bad_request("a request must be a JSON object")
    return request


def _param(params: dict, name: str, kind: type, default=_REQUIRED):
    """``params[name]`` as ``kind``; ``bytes`` reads a hex string.  A
    missing or mistyped field raises ``bad_request``."""
    value = params.get(name, default)
    if value is _REQUIRED:
        raise _bad_request(f"missing parameter {name!r}")
    if kind is bytes:
        return _unhex(name, value)
    if type(value) is not kind:
        raise _bad_request(f"parameter {name!r} must be a {kind.__name__}")
    if kind is str:
        # JSON's \uXXXX escapes can spell a lone surrogate, which no
        # later .encode() of a key id or method name survives.
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise _bad_request(f"parameter {name!r} is not valid Unicode") from None
    return value


def _unhex(name: str, value) -> bytes:
    if type(value) is not str:
        raise _bad_request(f"parameter {name!r} must be a hex string")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise _bad_request(f"parameter {name!r} is not hex") from None


def _error_response(request_id, exc: ThetacryptError) -> dict:
    response = {"id": request_id, "error": str(exc)}
    # Structured abort classification (timeout / insufficient_shares /
    # byzantine_detected / bad_request / ...) travels next to the
    # human-readable message.
    reason = getattr(exc, "reason", None)
    if reason is not None:
        response["error_reason"] = reason
    # Overload shedding: the server's backoff hint (seconds) rides with
    # the error so clients can pace their retries.
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


async def _linger(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then discard input until the peer closes (at most
    ``_LINGER_S``): closing with unread bytes resets the connection, and a
    reset can destroy the answer before the peer has read it."""

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    if writer.is_closing():
        return
    try:
        writer.write_eof()
        await asyncio.wait_for(discard(), _LINGER_S)
    except (asyncio.TimeoutError, OSError):
        pass


class RpcServer:
    """Per-node RPC listener: framing, the auth check, structured error
    serialisation (reason / retry_after) and per-method metrics."""

    def __init__(self, node: "ThetacryptNode", host: str, port: int):
        self._node = node
        self._host = host
        self._port = port
        self._auth_token = node.config.rpc_auth_token
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._metrics = RpcMetrics(node.registry)

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or not self._server.sockets:
            return self._host, self._port
        sock = self._server.sockets[0]
        return sock.getsockname()[0], sock.getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port, limit=RPC_LINE_LIMIT
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Await the cancelled handlers: returning while they unwind would
        # skip their cleanup and emit "Task was destroyed but it is pending".
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._metrics.connections.inc()
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over RPC_LINE_LIMIT: the framing is lost, so answer
                    # once and drop the connection.
                    self._metrics.requests.labels("<unparsed>", "error").inc()
                    error = _bad_request(
                        f"request line exceeds {RPC_LINE_LIMIT} bytes"
                    )
                    await self._write(writer, write_lock, _error_response(None, error))
                    await _linger(reader, writer)
                    return
                if not line:
                    return
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # abrupt client disconnect; the finally closes the writer
        finally:
            # close() alone: wait_closed() can hang on an abruptly-dropped
            # peer, pinning the connection task until loop teardown.
            writer.close()

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = None
        method = ""
        outcome = "ok"
        started = time.perf_counter()
        self._metrics.inflight.inc()
        try:
            try:
                request = _parse_request(line)
                request_id = request.get("id")
                method = _param(request, "method", str)
                params = _param(request, "params", dict)
                if self._auth_token and request.get("auth") != self._auth_token:
                    raise RpcError(
                        "unauthorized: request lacks the security-domain token"
                    )
                result = await self._dispatch_traced(method, params)
                response = {"id": request_id, "result": result}
            except ThetacryptError as exc:
                outcome = "error"
                response = _error_response(request_id, exc)
            except Exception as exc:  # noqa: BLE001 - a fault of the node itself
                logger.exception("rpc failure")
                outcome = "internal"
                response = {"id": request_id, "error": f"internal error: {exc}"}
        finally:
            self._metrics.inflight.dec()
            if method not in _METHODS:
                method = "<unknown>" if method else "<unparsed>"
            self._metrics.requests.labels(method, outcome).inc()
            self._metrics.latency.labels(method).observe(time.perf_counter() - started)
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
    ) -> None:
        async with write_lock:
            if writer.is_closing():
                return  # client went away while we were handling the request
            try:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
            except ConnectionError:
                pass

    async def _dispatch_traced(self, method: str, params: dict) -> dict:
        if method in _PROTOCOL_METHODS:
            # The executor task created under this context adopts the trace,
            # so the instance's per-round spans land in one breakdown with
            # the RPC-level timing.
            with start_trace(f"rpc:{method}") as trace:
                with trace.span(f"rpc:{method}"):
                    return await self._dispatch_inner(method, params)
        return await self._dispatch_inner(method, params)

    async def _dispatch_inner(self, method: str, params: dict) -> dict:
        node = self._node
        # ------ protocol API ------
        if method in ("decrypt", "sign", "flip_coin"):
            kind = {"decrypt": "decrypt", "sign": "sign", "flip_coin": "coin"}[method]
            started = time.monotonic()
            result = await node.run_request(
                kind,
                _param(params, "key_id", str),
                _param(params, "data", bytes),
                _param(params, "label", bytes, ""),
            )
            return {
                "result": hexlify(result),
                "latency": time.monotonic() - started,
            }
        if method == "run_dkg":
            group_key = await node.run_dkg(
                _param(params, "key_id", str),
                scheme=_param(params, "scheme", str, "cks05"),
                group_name=_param(params, "group", str, "ed25519"),
            )
            return {"group_key": group_key}
        if method == "refresh_key":
            group_key = await node.refresh_key(_param(params, "key_id", str))
            return {"group_key": group_key}
        if method == "precompute":
            # The FROST preprocessing round: count nonce sets per node.
            key_id = _param(params, "key_id", str)
            count = _param(params, "count", int)
            if not 0 < count < 1 << 32:
                raise _bad_request(f"count {count} outside 1..2**32-1")
            available = await node.precompute_frost(key_id, count)
            return {"available": available}
        if method == "status":
            record = node.instances.record(_param(params, "instance_id", str))
            return {
                "instance_id": record.instance_id,
                "scheme": record.scheme,
                "status": record.status.value,
                "latency": record.latency,
                "error": record.error,
                "abort_reason": record.abort_reason,
                # Per-round/per-hop timing breakdown recorded by the executor.
                "trace": record.trace_report(),
            }
        # ------ scheme API ------
        if method == "encrypt":
            ciphertext = node.scheme_encrypt(
                _param(params, "key_id", str),
                _param(params, "data", bytes),
                _param(params, "label", bytes, ""),
            )
            return {"ciphertext": hexlify(ciphertext)}
        if method == "verify_signature":
            valid = node.scheme_verify_signature(
                _param(params, "key_id", str),
                _param(params, "data", bytes),
                _param(params, "signature", bytes),
            )
            return {"valid": valid}
        if method == "list_keys":
            return {"keys": node.key_info()}
        if method == "node_stats":
            # Monitoring endpoint (the paper co-locates a Prometheus server
            # per node; this is the equivalent scrape target).
            return node.stats()
        if method == "metrics":
            # The same Prometheus document the HTTP scrape endpoint serves,
            # returned in-band for clients already holding an RPC connection.
            return {"text": node.render_metrics()}
        if method == "ping":
            return {"node_id": node.config.node_id}
        raise ThetacryptError(f"unknown method {method!r}")

