"""RPC client for applications and the benchmarking orchestrator.

The paper's orchestrator "implements the gRPC client-side Thetacrypt API to
create and schedule requests to the Θ-network" (§4.1).  Because every node
must participate in a threshold operation, a request is fanned out to the
whole network; the client returns as soon as the first node reports the
assembled result, which is when the Θ-network has produced it.

To start work early, send the request early and do not await it (for
instance ``asyncio.ensure_future(client.decrypt(...))``).  The same request
sent later derives the same instance id, so every node folds it into the
running instance or answers it from its outcome table, and nothing is
computed twice.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random

from ..errors import RpcError
from ..network.tcp import backoff_delay
from ..serialization import hexlify, unhexlify

#: Methods safe to retry blindly: reads, plus the protocol operations —
#: instance ids are derived deterministically from request content and
#: finalized results are cached (durably, on nodes with a data_dir), so a
#: repeated submission converges on the same instance instead of running
#: the protocol twice.  DKG/refresh mutate the key set and stay one-shot.
_IDEMPOTENT_METHODS = frozenset(
    {
        "decrypt",
        "sign",
        "flip_coin",
        "status",
        "encrypt",
        "verify_signature",
        "list_keys",
        "node_stats",
        "metrics",
        "ping",
    }
)


class _Connection:
    """One JSON-lines RPC connection with concurrent request support."""

    def __init__(self, host: str, port: int, auth_token: str = ""):
        self._host = host
        self._port = port
        self._auth_token = auth_token
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._listen_task: asyncio.Task | None = None
        self._lock = asyncio.Lock()

    async def _ensure(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        # Match the server's per-line limit: a ``metrics`` response is one
        # JSON line carrying the full Prometheus exposition, well past
        # asyncio's 64 KiB default under accumulated label cardinality.
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=1 << 20
        )
        self._listen_task = asyncio.get_running_loop().create_task(self._listen())

    async def _listen(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue
                if "error" in response:
                    error = RpcError(response["error"])
                    # Structured abort reason, when the server supplied one.
                    error.reason = response.get("error_reason")
                    # Overloaded nodes attach a backoff hint; it floors the
                    # retry delay in ThetacryptClient.call.
                    error.retry_after = response.get("retry_after")
                    future.set_exception(error)
                else:
                    future.set_result(response["result"])
        except (ConnectionError, OSError):
            pass  # abrupt peer death (RST): same treatment as a clean EOF
        finally:
            # Fail every waiting caller and drop the dead streams.  A
            # writer whose peer was SIGKILLed does not report is_closing(),
            # so without this reset _ensure would happily reuse the corpse
            # and the next call would wait forever on a response no
            # listener can deliver.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(RpcError("connection closed"))
            self._pending.clear()
            if self._writer is not None:
                self._writer.close()
            self._writer = None
            self._reader = None

    async def call(self, method: str, params: dict) -> dict:
        async with self._lock:
            await self._ensure()
            request_id = next(self._ids)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            assert self._writer is not None
            request = {"id": request_id, "method": method, "params": params}
            if self._auth_token:
                request["auth"] = self._auth_token
            self._writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await self._writer.drain()
        return await future

    async def close(self) -> None:
        if self._listen_task is not None:
            self._listen_task.cancel()
        if self._writer is not None:
            self._writer.close()


class ThetacryptClient:
    """Client-side view of a whole Θ-network: one connection per node,
    threshold ops fanned out to all of them."""

    def __init__(
        self,
        addresses: dict[int, tuple[str, int]],
        auth_token: str = "",
        max_retries: int = 3,
        retry_base: float = 0.05,
        retry_cap: float = 1.0,
    ):
        self._connections = {
            node_id: _Connection(host, port, auth_token)
            for node_id, (host, port) in addresses.items()
        }
        self._max_retries = max_retries
        self._retry_base = retry_base
        self._retry_cap = retry_cap
        self._retry_rng = random.Random()

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._connections)

    @staticmethod
    def _retriable(method: str, exc: Exception) -> bool:
        """Retry policy: idempotent methods only, and only for transient
        failures — connection loss, or a node shedding load."""
        if method not in _IDEMPOTENT_METHODS:
            return False
        if isinstance(exc, (ConnectionError, OSError)) and not isinstance(
            exc, RpcError
        ):
            return True
        if isinstance(exc, RpcError):
            return (
                getattr(exc, "reason", None) == "overloaded"
                or str(exc) == "connection closed"
            )
        return False

    async def call(self, node_id: int, method: str, params: dict) -> dict:
        """Invoke one node's RPC endpoint.

        Idempotent methods are retried on connection loss and on
        structured ``overloaded`` rejections, with exponential backoff +
        jitter (the transport's ``backoff_delay``); an ``overloaded``
        error's ``retry_after`` hint floors the delay.
        """
        if node_id not in self._connections:
            raise RpcError(f"unknown node {node_id}")
        connection = self._connections[node_id]
        attempt = 0
        while True:
            try:
                return await connection.call(method, params)
            except (RpcError, ConnectionError, OSError) as exc:
                if attempt >= self._max_retries or not self._retriable(
                    method, exc
                ):
                    raise
                delay = backoff_delay(
                    attempt,
                    self._retry_rng,
                    base=self._retry_base,
                    cap=self._retry_cap,
                )
                retry_after = getattr(exc, "retry_after", None)
                if retry_after:
                    delay = max(delay, retry_after)
            attempt += 1
            await asyncio.sleep(delay)

    async def broadcast(self, method: str, params: dict) -> dict[int, dict]:
        """Invoke every node; returns per-node results (exceptions included)."""
        results = await asyncio.gather(
            *(self.call(node_id, method, params) for node_id in self.node_ids),
            return_exceptions=True,
        )
        return dict(zip(self.node_ids, results))

    async def _threshold_op(self, method: str, params: dict) -> bytes:
        """Fan a request out and return the first assembled result."""
        tasks = [
            asyncio.ensure_future(self.call(node_id, method, params))
            for node_id in self.node_ids
        ]
        try:
            errors: list[Exception] = []
            for future in asyncio.as_completed(tasks):
                try:
                    result = await future
                except Exception as exc:  # noqa: BLE001 - try remaining nodes
                    errors.append(exc)
                    continue
                return unhexlify(result["result"])
            raise RpcError(f"all nodes failed: {errors}")
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- high-level convenience wrappers ------------------------------------------

    async def sign(self, key_id: str, message: bytes) -> bytes:
        return await self._threshold_op(
            "sign", {"key_id": key_id, "data": hexlify(message)}
        )

    async def decrypt(self, key_id: str, ciphertext: bytes, label: bytes = b"") -> bytes:
        return await self._threshold_op(
            "decrypt",
            {
                "key_id": key_id,
                "data": hexlify(ciphertext),
                "label": hexlify(label),
            },
        )

    async def flip_coin(self, key_id: str, name: bytes) -> bytes:
        return await self._threshold_op(
            "flip_coin", {"key_id": key_id, "data": hexlify(name)}
        )

    async def encrypt(
        self, key_id: str, plaintext: bytes, label: bytes = b"", node_id: int | None = None
    ) -> bytes:
        """Scheme-API encryption at one node (a local, public operation)."""
        target = node_id if node_id is not None else self.node_ids[0]
        result = await self.call(
            target,
            "encrypt",
            {
                "key_id": key_id,
                "data": hexlify(plaintext),
                "label": hexlify(label),
            },
        )
        return unhexlify(result["ciphertext"])

    async def verify_signature(
        self, key_id: str, message: bytes, signature: bytes, node_id: int | None = None
    ) -> bool:
        target = node_id if node_id is not None else self.node_ids[0]
        result = await self.call(
            target,
            "verify_signature",
            {
                "key_id": key_id,
                "data": hexlify(message),
                "signature": hexlify(signature),
            },
        )
        return bool(result["valid"])

    async def precompute(self, key_id: str, count: int) -> dict[int, dict]:
        """Run the KG20 nonce preprocessing round on every node: each node
        adds ``count`` nonce sets to this key's pool, and a signing request
        that pops one skips the commitment round."""
        return await self.broadcast(
            "precompute", {"key_id": key_id, "count": count}
        )

    async def refresh_key(self, key_id: str) -> bytes:
        """Proactive refresh on every node; returns the unchanged group key."""
        results = await self.broadcast("refresh_key", {"key_id": key_id})
        keys = set()
        for node_id, result in results.items():
            if isinstance(result, Exception):
                raise RpcError(f"node {node_id} failed refresh: {result}")
            keys.add(result["group_key"])
        if len(keys) != 1:
            raise RpcError(f"nodes disagree after refresh: {keys}")
        return unhexlify(keys.pop())

    async def node_stats(self, node_id: int | None = None) -> dict:
        """One node's health/latency snapshot (the ``node_stats`` method)."""
        target = node_id if node_id is not None else self.node_ids[0]
        return await self.call(target, "node_stats", {})

    async def metrics(self, node_id: int | None = None) -> str:
        """One node's Prometheus text exposition, fetched over RPC."""
        target = node_id if node_id is not None else self.node_ids[0]
        result = await self.call(target, "metrics", {})
        return result["text"]

    async def status(self, instance_id: str, node_id: int | None = None) -> dict:
        """One node's view of an instance, including its trace breakdown."""
        target = node_id if node_id is not None else self.node_ids[0]
        return await self.call(target, "status", {"instance_id": instance_id})

    async def run_dkg(
        self, key_id: str, scheme: str = "cks05", group: str = "ed25519"
    ) -> bytes:
        """Run distributed key generation on every node; returns the group key.

        All nodes participate; the call fails if any node reports a
        different group key (a serious inconsistency).
        """
        results = await self.broadcast(
            "run_dkg", {"key_id": key_id, "scheme": scheme, "group": group}
        )
        keys = set()
        for node_id, result in results.items():
            if isinstance(result, Exception):
                raise RpcError(f"node {node_id} failed DKG: {result}")
            keys.add(result["group_key"])
        if len(keys) != 1:
            raise RpcError(f"nodes disagree on the DKG group key: {keys}")
        return unhexlify(keys.pop())

    async def close(self) -> None:
        await asyncio.gather(
            *(conn.close() for conn in self._connections.values()),
            return_exceptions=True,
        )
