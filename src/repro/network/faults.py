"""Deterministic fault injection for any Thetacrypt transport.

Thetacrypt's model (§3.2) assumes reliable point-to-point channels and
tolerates up to *t* corrupted nodes.  This module exercises that claim: a
:class:`FaultyNetwork` wraps any :class:`~repro.network.interfaces.P2PNetwork`
(local, tcp — anything handed to the
:class:`~repro.network.manager.NetworkManager`) and injects faults drawn from
a seeded :class:`FaultPlan`:

* per-link **drop / delay / duplicate / reorder** probabilities,
* scheduled **partitions** with optional heal times,
* **crash-stop** and **crash-recovery** of whole nodes, and
* **Byzantine** corruption of outgoing share payloads.

All probabilistic decisions come from one :class:`random.Random` stream per
directed link, seeded from ``(plan.seed, src, dst)``; each message consumes a
fixed number of draws, so two runs with the same plan and the same per-link
message order make identical decisions — the property the determinism test
suite pins down.  Time-dependent faults (partitions, crashes) are pure
functions of the plan and a monotonic clock (``clock=``, else since ``start()``).

Every injected fault increments ``repro_faults_injected{node,kind}`` on the
process-wide registry, so chaos runs are observable through the same
Prometheus scrape as everything else (see docs/robustness.md).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import random
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


@dataclass(frozen=True)
class Crash:
    """Crash-stop (``recover`` None) or crash-recovery of one node."""

    node: int
    at: float = 0.0
    recover: float | None = None

    def active(self, now: float) -> bool:
        return now >= self.at and (self.recover is None or now < self.recover)


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
    crashes: tuple[Crash, ...] = ()
    byzantine: tuple[int, ...] = ()
    byzantine_rate: float = 1.0
    #: How long a reordered message is held back at most (seconds).
    reorder_hold: float = 0.05

    def link(self, src: int, dst: int) -> LinkFaults:
        for key in (f"{src}->{dst}", f"{src}->*", f"*->{dst}"):
            if key in self.links:
                return self.links[key]
        return self.default

    def partitioned(self, a: int, b: int, now: float) -> bool:
        return any(
            p.active(now) and p.separates(a, b) for p in self.partitions
        )

    def crashed(self, node: int, now: float) -> bool:
        return any(c.node == node and c.active(now) for c in self.crashes)

    def is_byzantine(self, node: int) -> bool:
        return node in self.byzantine


@dataclass(frozen=True)
class FaultDecision:
    """The probabilistic outcome for one message on one link."""

    drop: bool = False
    duplicate: bool = False
    reorder: bool = False
    corrupt: bool = False
    delay: float = 0.0


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


class FaultInjector:
    """Pure decision engine behind :class:`FaultyNetwork`.

    Kept separate from the asyncio wrapper so the discrete-event simulator
    and the determinism tests can consume the exact same fault schedule
    without a transport underneath.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rngs: dict[tuple[int, int], random.Random] = {}

    def link_rng(self, src: int, dst: int) -> random.Random:
        rng = self._rngs.get((src, dst))
        if rng is None:
            digest = hashlib.sha256(
                f"fault-plan:{self.plan.seed}:{src}->{dst}".encode()
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rngs[(src, dst)] = rng
        return rng

    def decide(self, src: int, dst: int) -> FaultDecision:
        """Draw the fault outcome for the next message ``src`` → ``dst``.

        Always consumes the same number of draws regardless of outcome, so
        schedules stay aligned across runs and across fault-kind subsets.
        """
        faults = self.plan.link(src, dst)
        rng = self.link_rng(src, dst)
        u_drop = rng.random()
        u_dup = rng.random()
        u_reorder = rng.random()
        u_corrupt = rng.random()
        u_jitter = rng.random()
        corrupt_p = faults.corrupt
        if self.plan.is_byzantine(src):
            corrupt_p = max(corrupt_p, self.plan.byzantine_rate)
        delay = faults.delay + faults.jitter * u_jitter
        return FaultDecision(
            drop=u_drop < faults.drop,
            duplicate=u_dup < faults.duplicate,
            reorder=u_reorder < faults.reorder,
            corrupt=u_corrupt < corrupt_p,
            delay=delay,
        )

    def corrupt(self, src: int, dst: int, data: bytes) -> bytes:
        return corrupt_frame(data, self.link_rng(src, dst))


class FaultyNetwork(P2PNetwork):
    """A :class:`P2PNetwork` that injects faults from a :class:`FaultPlan`.

    Wrap the raw transport *before* handing it to the
    :class:`~repro.network.manager.NetworkManager`, as
    :class:`~repro.service.cluster.LocalCluster` does for every node when
    given a ``fault_plan``::

        transport = FaultyNetwork(hub.endpoint(node_id), plan)
        node = ThetacryptNode(config, transport=transport)

    Send-side faults (drop/delay/duplicate/reorder/corrupt, partitions, the
    sender's own crash) are applied per directed link; the receive side
    additionally suppresses delivery while this node is crashed or the link
    is partitioned (covering peers whose transport is not wrapped).
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
        self.injector = FaultInjector(plan)
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
        now = self.now()
        if self.plan.crashed(self.node_id, now):
            self._count("crash")
            return
        if self.plan.crashed(recipient, now):
            # The peer is down; a real wire would accept the frame and lose
            # it.  Count it as a crash-induced loss on the sender.
            self._count("crash")
            return
        if self.plan.partitioned(self.node_id, recipient, now):
            self._count("partition")
            return
        decision = self.injector.decide(self.node_id, recipient)
        if decision.drop:
            self._count("drop")
            return
        payload = data
        if decision.corrupt:
            payload = self.injector.corrupt(self.node_id, recipient, data)
            self._count("corrupt")
        if decision.reorder:
            # Hold the message back; it is released after the *next* message
            # on this link (true reordering) or after ``reorder_hold``.
            self._count("reorder")
            self._held.setdefault(recipient, []).append(payload)
            self._spawn(self._flush_held_later(recipient))
            return
        if decision.delay > 0:
            self._count("delay")
            self._spawn(self._deliver_later(recipient, payload, decision.delay))
        else:
            await self._base.send(recipient, payload)
        if decision.duplicate:
            self._count("duplicate")
            await self._base.send(recipient, payload)
        await self._flush_held(recipient)

    async def broadcast(self, data: bytes) -> None:
        # Per-recipient sends so every directed link draws its own faults.
        for peer in self.peer_ids():
            await self.send(peer, data)

    # -- internals -------------------------------------------------------------

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
        now = self.now()
        if self.plan.crashed(self.node_id, now):
            self._count("crash")
            return
        if self.plan.partitioned(sender, self.node_id, now):
            self._count("partition")
            return
        if self._handler is not None:
            await self._handler(sender, data)
