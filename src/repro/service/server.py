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
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import TYPE_CHECKING, Awaitable, Callable

from ..errors import RpcError, ThetacryptError
from ..serialization import hexlify, unhexlify
from ..telemetry import MetricRegistry, RpcMetrics, start_trace

if TYPE_CHECKING:  # pragma: no cover
    from .node import ThetacryptNode

logger = logging.getLogger(__name__)

#: Methods that launch a threshold protocol instance (traced end to end).
_PROTOCOL_METHODS = frozenset(
    {"decrypt", "sign", "flip_coin", "run_dkg", "refresh_key", "precompute"}
)

#: Per-line stream limit for the JSON-lines framing.  The in-band
#: ``metrics`` response carries a node's whole Prometheus exposition on
#: one line, which outgrows asyncio's 64 KiB default once label
#: cardinality accumulates (many schemes × ops × outcomes per counter).
RPC_LINE_LIMIT = 1 << 20


class JsonLinesServer:
    """One JSON-lines RPC listener: framing, the auth check, structured
    error serialisation (reason / retry_after / details) and per-method
    metrics.  Whoever owns it supplies ``dispatch(method, params)``."""

    def __init__(
        self,
        dispatch: Callable[[str, dict], Awaitable[dict]],
        host: str,
        port: int,
        auth_token: str,
        registry: MetricRegistry,
        log_name: str = "rpc",
    ):
        self._dispatch = dispatch
        self._host = host
        self._port = port
        self._auth_token = auth_token
        self._log_name = log_name
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._metrics = RpcMetrics(registry)

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
                line = await reader.readline()
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
                request = json.loads(line)
                request_id = request.get("id")
                method = str(request.get("method", ""))
                if self._auth_token and request.get("auth") != self._auth_token:
                    raise RpcError(
                        "unauthorized: request lacks the security-domain token"
                    )
                result = await self._dispatch(method, request.get("params", {}))
                response = {"id": request_id, "result": result}
            except ThetacryptError as exc:
                outcome = "error"
                response = {"id": request_id, "error": str(exc)}
                # Structured abort classification (timeout /
                # insufficient_shares / byzantine_detected / ...) travels
                # next to the human-readable message.
                reason = getattr(exc, "reason", None)
                if reason is not None:
                    response["error_reason"] = reason
                # Overload shedding: the server's backoff hint (seconds)
                # rides with the error so clients can pace their retries.
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    response["retry_after"] = retry_after
                # Generic structured payload (no field allowlist): e.g. a
                # wrong_group redirect's owning group + endpoints.  Must
                # be JSON-serializable; anything else is dropped rather
                # than failing the error response itself.
                details = getattr(exc, "details", None)
                if details is not None:
                    try:
                        json.dumps(details)
                    except (TypeError, ValueError):
                        logger.warning(
                            "dropping non-serializable error details for %s",
                            method,
                        )
                    else:
                        response["error_details"] = details
            except Exception as exc:  # noqa: BLE001 - report malformed requests
                logger.exception("%s failure", self._log_name)
                outcome = "internal"
                response = {"id": request_id, "error": f"internal error: {exc}"}
        finally:
            self._metrics.inflight.dec()
            self._metrics.requests.labels(method or "<unparsed>", outcome).inc()
            self._metrics.latency.labels(method or "<unparsed>").observe(
                time.perf_counter() - started
            )
        async with write_lock:
            if writer.is_closing():
                return  # client went away while we were handling the request
            try:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
            except ConnectionError:
                pass


class RpcServer(JsonLinesServer):
    """Per-node RPC listener."""

    def __init__(self, node: "ThetacryptNode", host: str, port: int):
        super().__init__(
            self._dispatch_traced,
            host,
            port,
            node.config.rpc_auth_token,
            node.registry,
        )
        self._node = node

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
                params["key_id"],
                unhexlify(params["data"]),
                unhexlify(params.get("label", "")),
            )
            return {
                "result": hexlify(result),
                "latency": time.monotonic() - started,
            }
        if method == "run_dkg":
            group_key = await node.run_dkg(
                params["key_id"],
                scheme=params.get("scheme", "cks05"),
                group_name=params.get("group", "ed25519"),
            )
            return {"group_key": group_key}
        if method == "refresh_key":
            group_key = await node.refresh_key(params["key_id"])
            return {"group_key": group_key}
        if method == "precompute":
            # Two families behind one method: kg20 nonce batches (count=N,
            # the original API) and the generic announce of upcoming
            # requests (items=[hex, ...]) that stages shares per instance.
            if "items" in params:
                report = await node.precompute_requests(
                    params["key_id"],
                    [unhexlify(item) for item in params["items"]],
                    unhexlify(params.get("label", "")),
                )
                return report
            available = await node.precompute_frost(
                params["key_id"], int(params["count"])
            )
            return {"available": available}
        if method == "status":
            record = node.instances.record(params["instance_id"])
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
                params["key_id"],
                unhexlify(params["data"]),
                unhexlify(params.get("label", "")),
            )
            return {"ciphertext": hexlify(ciphertext)}
        if method == "verify_signature":
            valid = node.scheme_verify_signature(
                params["key_id"],
                unhexlify(params["data"]),
                unhexlify(params["signature"]),
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
