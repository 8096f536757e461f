"""Node configuration: everything a Thetacrypt instance learns at start-up."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..errors import ConfigurationError
from ..serialization import config_fields


@dataclass(frozen=True)
class PeerConfig:
    """Address book entry for one Θ-network member."""

    node_id: int
    host: str
    port: int


@dataclass(frozen=True)
class NodeConfig:
    """Start-up configuration of one node (paper §3.6: the network manager
    "sets up the needed components based on the configuration")."""

    node_id: int
    parties: int
    threshold: int
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    rpc_host: str = "127.0.0.1"
    rpc_port: int = 0
    peers: tuple[PeerConfig, ...] = ()
    transport: str = "tcp"  # "tcp" or "local"
    instance_timeout: float = 60.0
    # §3.2: "RPC requests can be authenticated by exploiting the common
    # security context such that only the service node in the same security
    # domain is allowed to issue requests".  Empty string disables the check.
    rpc_auth_token: str = ""
    # Plain-HTTP Prometheus scrape endpoint (GET /metrics) on rpc_host.
    # None disables it; 0 binds an ephemeral port (see node.metrics_address).
    metrics_port: int | None = None
    # Durability root for this node (docs/robustness.md, "Durability &
    # recovery"): keystore snapshot, instance journal, and result cache
    # live under it, and start() runs crash recovery from it.  None keeps
    # the node memory-only (the pre-durability behaviour).
    data_dir: str | None = None
    # Overload shedding: reject new submissions once this many instances
    # are pending, with a structured ``overloaded`` error carrying
    # ``overload_retry_after`` as the client's backoff hint.  None never
    # sheds.
    max_pending_instances: int | None = None
    overload_retry_after: float = 0.25

    def __post_init__(self) -> None:
        if not 1 <= self.node_id <= self.parties:
            raise ConfigurationError(
                f"node id {self.node_id} outside 1..{self.parties}"
            )
        if self.threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {self.threshold}")
        if self.threshold >= self.parties:
            raise ConfigurationError("threshold must be below the party count")
        if self.instance_timeout <= 0:
            raise ConfigurationError(
                f"instance_timeout must be > 0, got {self.instance_timeout}"
            )
        if self.transport not in ("tcp", "local"):
            raise ConfigurationError(f"unknown transport {self.transport!r}")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ConfigurationError(
                f"metrics_port must be >= 0 (or None to disable), "
                f"got {self.metrics_port}"
            )
        if self.max_pending_instances is not None and self.max_pending_instances < 1:
            raise ConfigurationError(
                f"max_pending_instances must be >= 1 (or None to disable), "
                f"got {self.max_pending_instances}"
            )
        if self.overload_retry_after < 0:
            raise ConfigurationError("overload_retry_after must be >= 0")

    def peer_map(self) -> dict[int, tuple[str, int]]:
        return {
            p.node_id: (p.host, p.port)
            for p in self.peers
            if p.node_id != self.node_id
        }

    def to_json(self) -> str:
        payload = asdict(self)
        payload["peers"] = [asdict(p) for p in self.peers]
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "NodeConfig":
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = _drop_retired(payload)
        payload = config_fields(NodeConfig, payload)
        peers = payload.pop("peers", [])
        return NodeConfig(
            peers=tuple(PeerConfig(**config_fields(PeerConfig, p)) for p in peers),
            **payload,
        )


#: Removed fields that every ``config.json`` written while they existed
#: carries (``to_json`` is ``asdict``): the one value each may still hold,
#: and why no other value has a meaning now.
_RETIRED = {
    "tob_sequencer": (1, "node 1 sequences the built-in TOB"),
    "tob_block_interval": (0.0, "the built-in TOB stamps each submission at once"),
    "precompute": (
        None, "requests run when they are asked for; KG20 nonce pools need no setting"
    ),
    "gossip_fanout": (None, "nodes link to every peer; there is no gossip overlay"),
    "enable_tob": (True, "every node runs the built-in TOB"),
    "drain_timeout": (5.0, "a stopping daemon drains for a fixed 5 s"),
    "fault_plan": (None, "chaos wraps a transport in a FaultyNetwork"),
}


def _drop_retired(payload: dict) -> dict:
    for key, (value, reason) in _RETIRED.items():
        # JSON's true is Python's 1: a bool stands only for a bool.
        if key in payload and (
            isinstance(payload[key], bool) != isinstance(value, bool)
            or payload[key] != value
        ):
            raise ConfigurationError(
                f"config key {key!r} must be {json.dumps(value)}: {reason}, "
                f"got {payload[key]!r}"
            )
    return {k: v for k, v in payload.items() if k not in _RETIRED}


def make_local_configs(
    parties: int,
    threshold: int,
    base_port: int = 17000,
    rpc_base_port: int = 18000,
    host: str = "127.0.0.1",
    **overrides,
) -> list[NodeConfig]:
    """Build a consistent config set for an n-node deployment on one host."""
    peers = tuple(
        PeerConfig(i, host, base_port + i) for i in range(1, parties + 1)
    )
    return [
        NodeConfig(
            node_id=i,
            parties=parties,
            threshold=threshold,
            listen_host=host,
            listen_port=base_port + i,
            rpc_host=host,
            # rpc_base_port=0 requests OS-assigned ephemeral ports.
            rpc_port=rpc_base_port + i if rpc_base_port else 0,
            peers=peers,
            **overrides,
        )
        for i in range(1, parties + 1)
    ]
