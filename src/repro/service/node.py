"""The Thetacrypt node: service + core + network wired together.

"Each node runs a stateful Thetacrypt instance in a dedicated process.
Applications invoke the service at one node through a remote procedure call"
(§3.2).  The node derives deterministic instance ids from request content so
that all n nodes working on the same request converge on the same protocol
instance without extra coordination.
"""

from __future__ import annotations

import asyncio
import logging
from pathlib import Path

from ..core.messages import Channel
from ..core.orchestration import (
    InstanceManager,
    InstanceRecord,
    KeyManager,
    derive_instance_id,
)
from ..core.protocols import (
    DealProtocol,
    FrostPrecomputationPool,
    FrostPrecomputeProtocol,
    FrostProtocol,
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from ..groups.registry import get_group
from ..errors import ConfigurationError, RpcError
from ..network.interfaces import P2PNetwork
from ..network.manager import NetworkManager
from ..network.tcp import TcpP2P
from ..schemes.base import SCHEME_TABLE, SchemeKind, get_scheme
from ..schemes.dealing import refresh_secret
from ..schemes.keystore import KEY_CLASSES
from ..serialization import hexlify
from ..storage import DurableResultCache
from ..telemetry import (
    EventLoopLagSampler,
    MetricRegistry,
    MetricsHttpServer,
    PrecomputeMetrics,
    StorageMetrics,
    default_registry,
    register_crypto_cache_collector,
    render_text,
    summarize,
)
from .config import NodeConfig
from .server import RpcServer

logger = logging.getLogger(__name__)

__all__ = ["ThetacryptNode"]

#: The schemes whose key material a dealing yields, ``(Y = g^x, Y_i =
#: g^{x_i})``; their classes are in :data:`KEY_CLASSES`.
_DEALT_KEYS = ("cks05", "sg02", "kg20")

#: Graceful shutdown: how long a stopping daemon waits for in-flight
#: instances to terminate before tearing the node down (seconds).
DRAIN_TIMEOUT = 5.0


class ThetacryptNode:
    """One Θ-network member."""

    def __init__(
        self,
        config: NodeConfig,
        transport: P2PNetwork | None = None,
        tob=None,
    ):
        self.config = config
        # Durability (docs/robustness.md): with a data_dir the node owns a
        # crash-safe keystore snapshot and backs its outcome table with a
        # log; previously persisted key shares and finished results are
        # reloaded here, before install_key runs.
        self._recovery: dict = {}
        keystore = outcome_dir = None
        if config.data_dir is not None:
            data_dir = Path(config.data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            keystore = data_dir / "keystore.bin"
            outcome_dir = data_dir / "results"
        self._outcomes = DurableResultCache(outcome_dir)
        self.keys = KeyManager(keystore)
        if transport is None:
            if config.transport != "tcp":
                raise ConfigurationError(
                    "non-tcp transports must be supplied explicitly "
                    "(e.g. a LocalHub endpoint)"
                )
            transport = TcpP2P(
                config.node_id,
                config.listen_host,
                config.listen_port,
                config.peer_map(),
            )
        # ``tob`` lets a host platform supply its own total-order channel
        # (the proxy deployment of Fig. 1); otherwise the node runs the
        # built-in sequencer TOB.
        self.network = NetworkManager(transport, tob=tob)
        # Per-node metric registry: keeps this node's request metrics
        # isolated when several nodes share one process; process-wide
        # instruments (transports, crypto caches) live in the default
        # registry and are merged into this node's exposition.
        self.registry = MetricRegistry()
        register_crypto_cache_collector(default_registry())
        # Event-loop lag heartbeat: the direct measure of how long inline
        # crypto blocks everything else on this node's loop.
        self._lag_sampler = EventLoopLagSampler(self.registry)
        self.instances = InstanceManager(
            config.node_id,
            self.network.dispatch,
            default_timeout=config.instance_timeout,
            registry=self.registry,
            outcomes=self._outcomes,
            max_pending=config.max_pending_instances,
            overload_retry_after=config.overload_retry_after,
        )
        self.network.set_protocol_handler(self.instances.handle_network_message)
        self.rpc = RpcServer(self, config.rpc_host, config.rpc_port)
        self._metrics_http: MetricsHttpServer | None = None
        if config.metrics_port is not None:
            self._metrics_http = MetricsHttpServer(
                self.render_metrics, config.rpc_host, config.metrics_port
            )
        # KG20 nonce pools, one per key, filled by the FROST preprocessing
        # round (precompute_frost) and drained by signing instances.  Nonce
        # material never rests on disk, so a restart empties them.
        self._frost_pools: dict[str, FrostPrecomputationPool] = {}
        self._precompute_metrics = PrecomputeMetrics(self.registry)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._recover()
        await self.network.start()
        await self.rpc.start()
        if self._metrics_http is not None:
            await self._metrics_http.start()
        self._lag_sampler.start()

    def _recover(self) -> None:
        """Report what opening ``data_dir`` recovered (no-op without one).

        The outcome table folded its log when it was constructed: finished
        results are entries again, so duplicates are answered without
        re-running the protocol, and every instance submitted but never
        terminated — in flight when the process died — is an entry aborted
        with reason ``crash_recovery``.  Here that is only counted.
        """
        if self.config.data_dir is None:
            return
        loaded, interrupted = self._outcomes.loaded, self._outcomes.interrupted
        for _, scheme in interrupted:
            self.instances.metrics.aborts.labels(scheme, "crash_recovery").inc()
        self._recovery = {
            "keys": len(self.keys),
            "results": loaded,
            "aborted": len(interrupted),
        }
        metrics = StorageMetrics(self.registry)
        metrics.recoveries.inc()
        metrics.recovered_keys.set(len(self.keys))
        metrics.recovered_instances.labels("finalized").inc(loaded)
        metrics.recovered_instances.labels("aborted").inc(len(interrupted))
        if loaded or interrupted:
            logger.info(
                "node %d recovered: %d keys, %d cached results, "
                "%d in-flight instances aborted (crash_recovery)",
                self.config.node_id,
                *self._recovery.values(),
            )

    async def drain(self) -> bool:
        """Wait (bounded) for in-flight instances to terminate.

        Graceful-shutdown hook: returns True when the node went idle
        within :data:`DRAIN_TIMEOUT` seconds, False if instances were
        still pending when the budget ran out.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT
        while self.instances.active_count > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        return self.instances.active_count == 0

    async def stop(self) -> None:
        await self._lag_sampler.stop()
        if self._metrics_http is not None:
            await self._metrics_http.stop()
        await self.rpc.stop()
        try:
            await self.instances.shutdown()
            await self.network.stop()
        finally:
            # Flush + close durable state last: executor completions above
            # may still append terminal records.
            self._outcomes.close()

    @property
    def rpc_address(self) -> tuple[str, int]:
        return self.rpc.address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """Host/port of the HTTP scrape endpoint (None when disabled)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    def render_metrics(self) -> str:
        """This node's Prometheus text exposition (own + process metrics)."""
        return render_text(self.registry, default_registry())

    # -- key installation --------------------------------------------------------

    def install_key(
        self, key_id: str, scheme: str, public_key, key_share
    ) -> None:
        """Register dealer output for this node (done before start): a
        no-op for a share of a key already held, refused for another key
        under a held id (:meth:`KeyManager.register`)."""
        self.keys.register(key_id, scheme, public_key, key_share)

    # -- protocol API ----------------------------------------------------------

    def _channel_for(self, scheme: str) -> Channel:
        # Interactive protocols synchronise their rounds over TOB (§3.6);
        # non-interactive schemes use plain P2P.
        if SCHEME_TABLE[scheme].rounds > 1:
            return Channel.TOB
        return Channel.P2P

    def submit_request(
        self,
        kind: str,
        key_id: str,
        data: bytes,
        label: bytes = b"",
    ) -> InstanceRecord:
        """Start (idempotently) the protocol instance for a request.

        A request sent again while its instance runs, or after it ended,
        folds into that instance: this is how a client starts work early.
        A kg20 nonce set staged for the key is consumed when the instance
        is built, which the instance manager does only for a request that
        is not a duplicate, and the first round's crypto is skipped.
        """
        entry = self.keys.get(key_id)
        if entry.scheme == "kg20" and kind != "sign":
            raise RpcError("kg20 keys only support signing")
        instance_id = derive_instance_id(kind, key_id, data, label)
        #: The round the instance starts in, if it popped a kg20 nonce set.
        precomputed: int | None = None

        def build():
            nonlocal precomputed
            channel = self._channel_for(entry.scheme)
            if entry.scheme == "kg20":
                protocol = FrostProtocol(
                    instance_id,
                    entry.key_share,
                    data,
                    channel=channel,
                    pool=self._frost_pool(key_id),
                )
                if protocol.round:  # popped a nonce set: signing starts in round 1
                    precomputed = protocol.round
                    self._note_frost_depth(key_id)
                return protocol
            operation = make_operation(
                entry.scheme,
                entry.public_key,
                entry.key_share,
                OperationRequest(kind, data, label),
            )
            return NonInteractiveProtocol(
                instance_id, self.config.node_id, operation, channel=channel
            )

        record = self.instances.start_instance(
            build, entry.scheme, instance_id=instance_id
        )
        if precomputed is not None:
            record.trace.event("precomputed", round=precomputed)
        return record

    async def run_request(
        self, kind: str, key_id: str, data: bytes, label: bytes = b""
    ) -> bytes:
        """Submit a request and await its result."""
        record = self.submit_request(kind, key_id, data, label)
        return await self.instances.result(record)

    async def _run_control(self, protocol, scheme: str):
        """Run a control-plane instance (frost-pre, dkg, refresh) to its end
        and return the protocol that ran: a concurrent call for the same
        instance id joins the running one, and its own protocol never runs.
        It is not a request: the outcome table never hears of it."""
        record = self.instances.start_instance(protocol, scheme, retain=False)
        ran = self.instances.protocol(record.instance_id)
        await self.instances.result(record)
        return ran

    def _frost_pool(self, key_id: str) -> FrostPrecomputationPool:
        return self._frost_pools.setdefault(key_id, FrostPrecomputationPool())

    def _note_frost_depth(self, key_id: str) -> None:
        """Refresh the depth gauge after a preprocessing round filled the
        pool or a signing instance popped a set from it."""
        self._precompute_metrics.depth.labels(key_id, "kg20-nonce").set(
            self._frost_pools[key_id].available
        )

    async def precompute_frost(self, key_id: str, count: int) -> int:
        """Run the FROST preprocessing round, filling this key's nonce pool."""
        entry = self.keys.get(key_id)
        if entry.scheme != "kg20":
            raise RpcError("precomputation only applies to kg20 keys")
        pool = self._frost_pool(key_id)
        instance_id = derive_instance_id(
            "frost-pre",
            key_id,
            pool.batches.to_bytes(4, "big") + count.to_bytes(4, "big"),
        )
        protocol = FrostPrecomputeProtocol(
            instance_id,
            entry.key_share,
            count,
            pool,
            channel=self._channel_for("kg20"),
        )
        await self._run_control(protocol, "kg20")
        self._note_frost_depth(key_id)
        return pool.available

    async def _deal(
        self, instance_id, scheme, group, threshold, parties, dealers, secret
    ):
        """Run one Feldman dealing among ``dealers`` (a DKG or a refresh) to
        its end, t+1 of them to qualify.  Returns this node's new ``scheme``
        key share, whose ``public`` is the new public key, and the group key
        in hex."""
        protocol = DealProtocol(
            instance_id, self.config.node_id, threshold, parties, group,
            dealers, secret, need=threshold + 1,
        )
        result = (await self._run_control(protocol, scheme)).result
        public_cls, share_cls = KEY_CLASSES[scheme]
        public = public_cls(
            group.name, threshold, parties, result.group_key,
            result.verification_keys,
        )
        share = share_cls(self.config.node_id, result.share_value, public)
        return share, hexlify(result.group_key.to_bytes())

    async def run_dkg(
        self, key_id: str, scheme: str = "cks05", group_name: str = "ed25519"
    ) -> str:
        """Generate a key *without a dealer* and install it under ``key_id``.

        All nodes must call this with the same arguments (the instance id is
        derived from them); every node deals a random secret.  The
        Joint-Feldman output has the shape ``(Y = g^x, Y_i = g^{x_i})``,
        which is exactly the key material of the discrete-log schemes;
        supported targets: cks05, sg02, kg20.  Returns the hex group public
        key.
        """
        if scheme not in _DEALT_KEYS:
            raise RpcError(
                f"DKG output fits DL schemes only ({sorted(_DEALT_KEYS)}), "
                f"not {scheme!r}"
            )
        if key_id in self.keys:
            raise RpcError(f"key id {key_id!r} already installed")
        self.keys.check_id(key_id)
        group = get_group(group_name)
        parties = self.config.parties
        share, group_key = await self._deal(
            derive_instance_id("dkg", key_id, group_name.encode(), scheme.encode()),
            scheme,
            group,
            self.config.threshold,
            parties,
            dealers=range(1, parties + 1),
            secret=group.random_scalar(),
        )
        self.install_key(key_id, scheme, share.public, share)
        return group_key

    async def refresh_key(self, key_id: str) -> str:
        """Proactively refresh an installed DL key's shares (same public key).

        All nodes must call this with the same ``key_id``.  The first t+1
        nodes re-deal their Lagrange-weighted shares; every node ends up
        with a fresh share of the same secret, and the entry in the key
        manager is swapped atomically once the protocol finishes.  Returns
        the (unchanged) group key in hex.
        """
        entry = self.keys.get(key_id)
        if entry.scheme not in _DEALT_KEYS:
            raise RpcError(
                f"refresh supports the DL schemes, not {entry.scheme!r}"
            )
        public = entry.public_key
        dealers = range(1, public.threshold + 2)
        node_id = self.config.node_id
        # The public key carries every party's verification key, so it
        # changes with each refresh and names the epoch: repeated refreshes
        # are distinct, the name is as durable as the keystore, and a node
        # still on the old epoch derives another id instead of mixing shares.
        share, group_key = await self._deal(
            derive_instance_id("refresh", key_id, public.to_bytes()),
            entry.scheme,
            public.group,
            public.threshold,
            public.parties,
            dealers,
            secret=(
                refresh_secret(node_id, entry.key_share.value, dealers, public.group)
                if node_id in dealers
                else None
            ),
        )
        self.keys.replace(key_id, share.public, share)
        return group_key

    # -- scheme API (direct primitive access) ----------------------------------

    def scheme_encrypt(self, key_id: str, plaintext: bytes, label: bytes) -> bytes:
        entry = self.keys.get(key_id)
        scheme = get_scheme(entry.scheme)
        if SCHEME_TABLE[entry.scheme].kind is not SchemeKind.CIPHER:
            raise RpcError(f"key {key_id!r} is not a cipher key")
        return scheme.encrypt(entry.public_key, plaintext, label).to_bytes()

    def scheme_verify_signature(
        self, key_id: str, message: bytes, signature: bytes
    ) -> bool:
        from ..schemes import bls04, kg20, sh00

        entry = self.keys.get(key_id)
        scheme = get_scheme(entry.scheme)
        try:
            if entry.scheme == "sh00":
                sig = sh00.Sh00Signature.from_bytes(signature)
            elif entry.scheme == "bls04":
                sig = bls04.Bls04Signature.from_bytes(signature)
            elif entry.scheme == "kg20":
                sig = kg20.Kg20Signature.from_bytes(
                    signature, entry.public_key.group
                )
            else:
                raise RpcError(f"key {key_id!r} is not a signature key")
            scheme.verify(entry.public_key, message, sig)
            return True
        except RpcError:
            raise
        except Exception:  # noqa: BLE001 - verification is a boolean question
            return False

    def stats(self) -> dict:
        """Health/utilization snapshot (see docs/observability.md).  Counts
        and latency digests are read from the metric registry — the source
        Prometheus scrapes — so the two views cannot disagree.
        """
        return {
            "node_id": self.config.node_id,
            # Terminated instances by final status, from
            # repro_instances_total (live ones are "active", below).
            "instances": self.instances.metrics.instances.totals_by("status"),
            "active": self.instances.active_count,
            "keys": len(self.keys),
            # Structured failure taxonomy (docs/robustness.md): how many
            # instances aborted per reason (timeout / insufficient_shares /
            # byzantine_detected / crash_recovery / ...).
            "aborts": self.instances.metrics.aborts.totals_by("reason"),
            # What the last start() recovered from data_dir (empty for
            # memory-only nodes and for clean first boots).
            "recovery": dict(self._recovery),
            "latency": dict(summarize(self.registry.get("repro_instance_seconds"))),
            # Constant: big integers are CPython's pow.  Kept only because
            # benchmarks/thetabench/measure.py reads its "name".
            "crypto_backend": {"name": "python"},
            # KG20 nonce sets available per key (empty pools omitted).
            "precompute": {
                "frost": {
                    key_id: pool.available
                    for key_id, pool in sorted(self._frost_pools.items())
                    if pool.available
                }
            },
            # Scheduling-delay digest from the heartbeat histogram: how
            # long the crypto the executors run holds the event loop.
            "event_loop_lag": dict(
                summarize(self.registry.get("repro_event_loop_lag_seconds"))
            ),
        }

    def key_info(self) -> list[dict]:
        return [
            {
                "key_id": entry.key_id,
                "scheme": entry.scheme,
                "kind": entry.kind,
                "threshold": entry.public_key.threshold,
                "parties": entry.public_key.parties,
                "public_key": hexlify(entry.public_key.to_bytes()),
            }
            for entry in self.keys.list_keys()
        ]
