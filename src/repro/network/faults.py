"""Deterministic fault injection for any Thetacrypt transport.

Thetacrypt's model (§3.2) assumes reliable point-to-point channels and
tolerates up to *t* corrupted nodes.  This module exercises that claim: a
:class:`FaultyNetwork` wraps any :class:`~repro.network.interfaces.P2PNetwork`
(local, tcp — anything handed to the
:class:`~repro.network.manager.NetworkManager`) and injects faults drawn from
a seeded :class:`FaultPlan`:

* per-link **drop / delay / duplicate / reorder** probabilities,
* scheduled **partitions** with optional heal times, and
* **Byzantine** corruption of outgoing share payloads.

A crash is not a link fault: :meth:`~repro.service.cluster.LocalCluster.stop`
and ``restart`` take a node's RPC, executors and storage down with it.  To
cut one node off from the rest while it keeps running, isolate it with a
:class:`Partition` (``groups=((i,), <every other node>)``).

All probabilistic decisions come from one :class:`random.Random` stream per
directed link, seeded from ``(plan.seed, src, dst)``; each message consumes a
fixed number of draws, so two runs with the same plan and the same per-link
message order make identical decisions — the property the determinism test
suite pins down.  Partitions are pure functions of the plan and a monotonic
clock (``clock=``, else since ``start()``).

Every injected fault increments ``repro_faults_injected{node,kind}`` on the
process-wide registry, so chaos runs are observable through the same
Prometheus scrape as everything else (see docs/robustness.md).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.messages import ProtocolMessage
from ..errors import ConfigurationError
from ..telemetry import counter
from .interfaces import MessageHandler, P2PNetwork

#: One counter family for every fault kind this module can inject.
_FAULTS = counter(
    "repro_faults_injected",
    "Faults injected by FaultyNetwork, per node and fault kind.",
    ("node", "kind"),
)


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities and delay parameters.

    ``drop``/``duplicate``/``reorder``/``corrupt`` are probabilities in
    [0, 1]; ``delay`` is a fixed extra one-way latency in seconds and
    ``jitter`` adds a uniform [0, jitter) component on top.
    """

    drop: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} probability {p} outside [0, 1]")
        if self.delay < 0 or self.jitter < 0:
            raise ConfigurationError("delay/jitter must be non-negative")


@dataclass(frozen=True)
class Partition:
    """A scheduled network partition: nodes in different groups cannot talk.

    ``start``/``heal`` are seconds since the fault clock started; ``heal``
    ``None`` means the partition never heals.  Nodes absent from every group
    are unaffected.
    """

    groups: tuple[tuple[int, ...], ...]
    start: float = 0.0
    heal: float | None = None

    def active(self, now: float) -> bool:
        return now >= self.start and (self.heal is None or now < self.heal)

    def separates(self, a: int, b: int) -> bool:
        side_a = side_b = None
        for index, group in enumerate(self.groups):
            if a in group:
                side_a = index
            if b in group:
                side_b = index
        return side_a is not None and side_b is not None and side_a != side_b


_LINK_KEY = re.compile(r"(\*|[1-9][0-9]*)->(\*|[1-9][0-9]*)")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos scenario.

    ``links`` overrides the ``default`` link faults for directed links,
    keyed ``"src->dst"`` with ``"*"`` as a wildcard on either side.
    ``byzantine`` nodes have their outgoing protocol payloads corrupted
    with probability ``byzantine_rate``.
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    links: Mapping[str, LinkFaults] = field(default_factory=dict)
    partitions: tuple[Partition, ...] = ()
    byzantine: tuple[int, ...] = ()
    byzantine_rate: float = 1.0
    #: How long a reordered message is held back at most (seconds).
    reorder_hold: float = 0.05

    def __post_init__(self) -> None:
        for key in self.links:
            if not _LINK_KEY.fullmatch(key) or key == "*->*":
                raise ConfigurationError(
                    f"links key {key!r} is not 'src->dst' (node ids or '*', "
                    "not both '*'; that is the default)"
                )
        for partition in self.partitions:
            members = [node for group in partition.groups for node in group]
            if len(members) != len(set(members)):
                raise ConfigurationError(
                    f"partitions: a node is in two groups of {partition.groups}"
                )
            if partition.heal is not None and partition.heal <= partition.start:
                raise ConfigurationError(
                    f"partitions: heal {partition.heal} is not after "
                    f"start {partition.start}"
                )
        if not 0.0 <= self.byzantine_rate <= 1.0:
            raise ConfigurationError(
                f"byzantine_rate {self.byzantine_rate} outside [0, 1]"
            )
        if self.reorder_hold < 0:
            raise ConfigurationError(
                f"reorder_hold {self.reorder_hold} must be non-negative"
            )

    def nodes(self) -> set[int]:
        """Every node id the plan names."""
        named = set(self.byzantine)
        for partition in self.partitions:
            for group in partition.groups:
                named.update(group)
        for key in self.links:
            named.update(int(side) for side in key.split("->") if side != "*")
        return named

    def link(self, src: int, dst: int) -> LinkFaults:
        for key in (f"{src}->{dst}", f"{src}->*", f"*->{dst}"):
            if key in self.links:
                return self.links[key]
        return self.default

    def partitioned(self, a: int, b: int, now: float) -> bool:
        return any(
            p.active(now) and p.separates(a, b) for p in self.partitions
        )

    def is_byzantine(self, node: int) -> bool:
        return node in self.byzantine


def corrupt_frame(data: bytes, rng: random.Random) -> bytes:
    """Byzantine corruption of one wire frame.

    Tries to parse the frame as a (possibly channel-tagged) serialized
    :class:`ProtocolMessage` and flips one payload byte, which keeps the
    envelope routable — the receiving executor must *reject* the share via
    its verification path rather than fail to parse the message.  Frames
    that do not parse get a byte flipped in the middle instead (receivers
    must survive that too).
    """
    for offset in (1, 0):
        try:
            message = ProtocolMessage.from_bytes(data[offset:])
        except Exception:  # noqa: BLE001 - not a protocol frame at this offset
            continue
        if not message.payload:
            break
        payload = bytearray(message.payload)
        index = rng.randrange(len(payload))
        payload[index] ^= 0xFF
        corrupted = dataclasses.replace(message, payload=bytes(payload))
        return data[:offset] + corrupted.to_bytes()
    if not data:
        return data
    buf = bytearray(data)
    buf[len(buf) // 2] ^= 0xFF
    return bytes(buf)


class FaultyNetwork(P2PNetwork):
    """A :class:`P2PNetwork` that injects faults from a :class:`FaultPlan`.

    Wrap the raw transport *before* handing it to the
    :class:`~repro.network.manager.NetworkManager`, as
    :class:`~repro.service.cluster.LocalCluster` does for every node when
    given a ``fault_plan``::

        transport = FaultyNetwork(hub.endpoint(node_id), plan)
        node = ThetacryptNode(config, transport=transport)

    Send-side faults (drop/delay/duplicate/reorder/corrupt, partitions) are
    applied per directed link; the receive side additionally suppresses
    delivery while the link is partitioned (covering peers whose transport
    is not wrapped).
    """

    def __init__(
        self,
        base: P2PNetwork,
        plan: FaultPlan,
        clock: Callable[[], float] | None = None,
    ):
        self.node_id = base.node_id
        self._base = base
        self.plan = plan
        #: One seeded stream per directed link out of this node.
        self._rngs: dict[int, random.Random] = {}
        self._handler: MessageHandler | None = None
        self._clock = clock
        self._tasks: set[asyncio.Task] = set()
        #: Messages held back for reordering, per recipient.
        self._held: dict[int, list[bytes]] = {}
        self._counters: dict[str, object] = {}
        base.set_handler(self._on_receive)

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        """Seconds on the fault clock: the shared ``clock`` if one was
        given, else since ``start()`` (0 before start)."""
        return self._clock() if self._clock is not None else 0.0

    # -- P2PNetwork interface -------------------------------------------------

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    def peer_ids(self) -> list[int]:
        return self._base.peer_ids()

    async def start(self) -> None:
        await self._base.start()
        if self._clock is None:
            loop = asyncio.get_running_loop()
            started_at = loop.time()
            self._clock = lambda: loop.time() - started_at

    async def stop(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        self._held.clear()
        await self._base.stop()

    async def send(self, recipient: int, data: bytes) -> None:
        if self.plan.partitioned(self.node_id, recipient, self.now()):
            self._count("partition")
            return
        drop, duplicate, reorder, corrupt, delay = self.draw(recipient)
        if drop:
            self._count("drop")
            return
        payload = data
        if corrupt:
            payload = corrupt_frame(data, self._link_rng(recipient))
            self._count("corrupt")
        if reorder:
            # Hold the message back; it is released after the *next* message
            # on this link (true reordering) or after ``reorder_hold``.
            self._count("reorder")
            self._held.setdefault(recipient, []).append(payload)
            self._spawn(self._flush_held_later(recipient))
            return
        if delay > 0:
            self._count("delay")
            self._spawn(self._deliver_later(recipient, payload, delay))
        else:
            await self._base.send(recipient, payload)
        if duplicate:
            self._count("duplicate")
            await self._base.send(recipient, payload)
        await self._flush_held(recipient)

    async def broadcast(self, data: bytes) -> None:
        # Per-recipient sends so every directed link draws its own faults.
        for peer in self.peer_ids():
            await self.send(peer, data)

    def draw(self, recipient: int) -> tuple[bool, bool, bool, bool, float]:
        """The fault outcome for the next message to ``recipient``:
        ``(drop, duplicate, reorder, corrupt, delay)``.

        Always consumes five draws regardless of outcome, so schedules stay
        aligned across runs and across fault-kind subsets.
        """
        faults = self.plan.link(self.node_id, recipient)
        rng = self._link_rng(recipient)
        u_drop = rng.random()
        u_dup = rng.random()
        u_reorder = rng.random()
        u_corrupt = rng.random()
        u_jitter = rng.random()
        corrupt_p = faults.corrupt
        if self.plan.is_byzantine(self.node_id):
            corrupt_p = max(corrupt_p, self.plan.byzantine_rate)
        return (
            u_drop < faults.drop,
            u_dup < faults.duplicate,
            u_reorder < faults.reorder,
            u_corrupt < corrupt_p,
            faults.delay + faults.jitter * u_jitter,
        )

    # -- internals -------------------------------------------------------------

    def _link_rng(self, recipient: int) -> random.Random:
        rng = self._rngs.get(recipient)
        if rng is None:
            digest = hashlib.sha256(
                f"fault-plan:{self.plan.seed}:{self.node_id}->{recipient}".encode()
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rngs[recipient] = rng
        return rng

    def _count(self, kind: str) -> None:
        child = self._counters.get(kind)
        if child is None:
            child = _FAULTS.labels(str(self.node_id), kind)
            self._counters[kind] = child
        child.inc()

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _deliver_later(self, recipient: int, data: bytes, delay: float) -> None:
        await asyncio.sleep(delay)
        await self._base.send(recipient, data)

    async def _flush_held(self, recipient: int) -> None:
        held = self._held.pop(recipient, None)
        if held:
            for frame in held:
                await self._base.send(recipient, frame)

    async def _flush_held_later(self, recipient: int) -> None:
        await asyncio.sleep(self.plan.reorder_hold)
        await self._flush_held(recipient)

    async def _on_receive(self, sender: int, data: bytes) -> None:
        if self.plan.partitioned(sender, self.node_id, self.now()):
            self._count("partition")
            return
        if self._handler is not None:
            await self._handler(sender, data)
