"""An in-process Θ-network: n nodes on one :class:`LocalHub`, one loop.

The paper's unit of deployment is an n-node network of stateful service
instances (§3.2).  Tests, benchmarks and examples boot that network inside
one process through :class:`LocalCluster` rather than wiring configs, hub,
keys and client by hand.  A restart is what it is for a daemon: a new
:class:`ThetacryptNode` on the same config, ``data_dir`` and hub endpoint.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from pathlib import Path

from ..errors import ConfigurationError
from ..network.faults import FaultPlan, FaultyNetwork
from ..network.local import LocalHub
from ..schemes.keygen import KeyMaterial
from .client import ThetacryptClient
from .config import NodeConfig, make_local_configs
from .node import ThetacryptNode


class LocalCluster:
    """``async with LocalCluster(keys) as cluster:`` boots ``parties``
    started nodes, each holding its share of every ``key_id → KeyMaterial``
    in ``keys``, plus one client for all of them.

    ``latency`` is every link's one-way delay in seconds, and
    ``config_overrides`` go to :func:`make_local_configs` (``metrics_port``,
    ``instance_timeout``, ...).  With a ``data_root`` each node keeps its
    durable state under ``data_root/node<i>``.  A ``fault_plan`` wraps every
    hub endpoint, restarts too, in a :class:`FaultyNetwork` on one clock;
    one that names a node outside ``1..parties`` is refused.
    """

    def __init__(
        self,
        keys: dict[str, KeyMaterial],
        parties: int = 4,
        threshold: int = 1,
        latency: float = 0.001,
        data_root: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        **config_overrides,
    ):
        if fault_plan is not None:
            strangers = sorted(
                node for node in fault_plan.nodes() if not 1 <= node <= parties
            )
            if strangers:
                raise ConfigurationError(
                    f"fault plan names nodes {strangers} outside 1..{parties}"
                )
        self._keys = keys
        self._fault_plan = fault_plan
        self._configs = make_local_configs(
            parties, threshold, transport="local", rpc_base_port=0,
            **config_overrides,
        )
        if data_root is not None:
            self._configs = [
                replace(c, data_dir=str(Path(data_root) / f"node{c.node_id}"))
                for c in self._configs
            ]
        self.hub = LocalHub(latency=lambda src, dst: latency)
        self.nodes: list[ThetacryptNode] = []
        self.client: ThetacryptClient | None = None
        self._stopped: set[int] = set()

    @property
    def addresses(self) -> dict[int, tuple[str, int]]:
        """RPC address of every running node."""
        return {
            node.config.node_id: node.rpc_address
            for node in self.nodes
            if node.config.node_id not in self._stopped
        }

    async def __aenter__(self) -> "LocalCluster":
        loop = asyncio.get_running_loop()
        booted_at = loop.time()
        self._fault_clock = lambda: loop.time() - booted_at
        try:
            for config in self._configs:
                self.nodes.append(await self._boot(config))
            self.client = self._connect()
        except BaseException:
            await self.__aexit__(None, None, None)
            raise
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self.client is not None:
            await self.client.close()
        errors = []
        for node in self.nodes:
            try:
                await self.stop(node.config.node_id)
            except Exception as exc:  # noqa: BLE001 - stop the others first
                errors.append(exc)
        if errors:
            raise errors[0]

    async def stop(self, *node_ids: int) -> None:
        """Crash-stop these nodes: their RPC, network and executors go down
        and their hub endpoints stop receiving."""
        for node_id in node_ids:
            if node_id not in self._stopped:
                self._stopped.add(node_id)
                await self.nodes[node_id - 1].stop()

    async def restart(self, *node_ids: int) -> None:
        """Stop these nodes, then boot a fresh node for each on the same
        config, ``data_dir`` and hub endpoint.  A restarted node listens on
        a new RPC port, so the client is reopened."""
        await self.client.close()
        await self.stop(*node_ids)
        for node_id in node_ids:
            self.nodes[node_id - 1] = await self._boot(self._configs[node_id - 1])
            self._stopped.discard(node_id)
        self.client = self._connect()

    async def _boot(self, config: NodeConfig) -> ThetacryptNode:
        transport = self.hub.endpoint(config.node_id)
        if self._fault_plan is not None:
            transport = FaultyNetwork(transport, self._fault_plan, self._fault_clock)
        node = ThetacryptNode(config, transport=transport)
        for key_id, material in self._keys.items():
            node.install_key(
                key_id,
                material.scheme,
                material.public_key,
                material.share_for(config.node_id),
            )
        await node.start()
        return node

    def _connect(self) -> ThetacryptClient:
        return ThetacryptClient(
            self.addresses, auth_token=self._configs[0].rpc_auth_token
        )
