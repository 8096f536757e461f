"""The validator node: the five-layer stack of Fig. 1, minimally.

Each validator owns one transport and multiplexes it into:

* the chain's consensus channel — a :class:`SequencerTob` ordering block
  proposals (our stand-in for the BFT consensus layer);
* a Thetacrypt P2P channel plus a TOB facade, exposed through a
  :class:`HostPlatformBridge` so a Thetacrypt instance can attach with the
  *proxy* modules of §3.6 and ride the chain's own networks.

Blocks are formed deterministically at delivery time (height and parent
assigned by every replica from its local chain), transactions execute
sequentially through the account state machine, and encrypted transactions
are handed to a ``decryptor`` — typically the co-located Θ instance — only
*after* their position is final, which is precisely the front-running
protection of §2.3.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from ..errors import NetworkError, SerializationError
from ..network.interfaces import MessageHandler, P2PNetwork, TotalOrderBroadcast
from ..network.manager import _Multiplexer
from ..network.proxy import HostPlatformBridge
from ..network.tob import SequencerTob
from ..serialization import Reader, encode_bytes, encode_int
from .state import AccountState
from .types import Block, Transaction, block_hash, genesis_parent

_TAG_THETA_P2P = 0x11
_TAG_CHAIN_TOB = 0x12

_TOB_BLOCK = 0x01
_TOB_THETA = 0x02

Decryptor = Callable[[bytes], Awaitable[bytes]]


class _ThetaTobFacade(TotalOrderBroadcast):
    """Thetacrypt's TOB view: messages ride the chain's consensus channel."""

    def __init__(self, validator: "ValidatorNode"):
        self._validator = validator
        self._handler: MessageHandler | None = None

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    async def submit(self, data: bytes) -> None:
        await self._validator._tob.submit(bytes([_TOB_THETA]) + data)

    async def deliver(self, origin: int, data: bytes) -> None:
        if self._handler is not None:
            await self._handler(origin, data)


class ValidatorNode:
    """One blockchain validator, optionally hosting a Θ bridge endpoint."""

    def __init__(
        self,
        node_id: int,
        parties: int,
        transport: P2PNetwork,
        decryptor: Decryptor | None = None,
        bridge_host: str | None = None,
        bridge_port: int = 0,
    ):
        self.node_id = node_id
        self.parties = parties
        self._transport = transport
        self._mux = _Multiplexer(transport)
        self._tob = SequencerTob(self._mux.channel(_TAG_CHAIN_TOB))
        self._tob.set_handler(self._on_tob)
        self.decryptor = decryptor
        self.mempool: list[Transaction] = []
        self.chain: list[Block] = []
        self.state = AccountState()
        self._commit_queue: asyncio.Queue[tuple[int, bytes]] = asyncio.Queue()
        self._executor_task: asyncio.Task | None = None
        self._height_events: dict[int, asyncio.Event] = {}
        # Optional Thetacrypt attachment point (Fig. 1's Θ module).
        self.theta_facade = _ThetaTobFacade(self)
        self.bridge: HostPlatformBridge | None = None
        if bridge_host is not None:
            self.bridge = HostPlatformBridge(
                bridge_host,
                bridge_port,
                self._mux.channel(_TAG_THETA_P2P),
                tob=self.theta_facade,
            )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        await self._transport.start()
        if self.bridge is not None:
            await self.bridge.start()
        self._executor_task = asyncio.get_running_loop().create_task(
            self._execute_committed()
        )

    async def stop(self) -> None:
        if self._executor_task is not None:
            self._executor_task.cancel()
        if self.bridge is not None:
            await self.bridge.stop()
        await self._transport.stop()

    @property
    def bridge_address(self) -> tuple[str, int]:
        if self.bridge is None or self.bridge._server is None:
            raise NetworkError("validator has no bridge endpoint")
        sock = self.bridge._server.sockets[0]
        return sock.getsockname()[0], sock.getsockname()[1]

    # -- client API ----------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction) -> None:
        """Add a transaction to this validator's mempool."""
        self.mempool.append(transaction)

    async def propose(self) -> int:
        """Propose the current mempool as a block; returns the tx count.

        Any validator may propose; the TOB settles the block order, and all
        replicas assign heights deterministically at delivery.
        """
        if not self.mempool:
            return 0
        batch, self.mempool = self.mempool, []
        payload = encode_int(self.node_id) + encode_int(len(batch))
        for transaction in batch:
            payload += transaction.to_bytes()
        await self._tob.submit(bytes([_TOB_BLOCK]) + payload)
        return len(batch)

    async def await_height(self, height: int, timeout: float = 30.0) -> Block:
        """Wait until the chain reaches ``height``; returns that block."""
        if len(self.chain) < height:
            event = self._height_events.setdefault(height, asyncio.Event())
            await asyncio.wait_for(event.wait(), timeout)
        return self.chain[height - 1]

    # -- consensus delivery ---------------------------------------------------------

    async def _on_tob(self, origin: int, frame: bytes) -> None:
        if not frame:
            return
        tag, body = frame[0], frame[1:]
        if tag == _TOB_THETA:
            await self.theta_facade.deliver(origin, body)
        elif tag == _TOB_BLOCK:
            # Execution must stay sequential even though decryption awaits
            # the Θ network, so committed proposals go through a queue.
            await self._commit_queue.put((origin, body))

    async def _execute_committed(self) -> None:
        while True:
            origin, body = await self._commit_queue.get()
            try:
                reader = Reader(body)
                proposer = reader.read_int()
                count = reader.read_int()
                transactions = tuple(
                    Transaction.read_from(reader) for _ in range(count)
                )
                reader.finish()
            except SerializationError as exc:
                # Every replica sees the same bytes at the same position,
                # so every replica skips them alike: no height is taken.
                self.state.rejected.append(f"block from node {origin}: {exc}")
                continue
            parent = block_hash(self.chain[-1]) if self.chain else genesis_parent()
            block = Block(len(self.chain) + 1, parent, proposer, transactions)
            await self._execute_block(block)
            self.chain.append(block)
            event = self._height_events.pop(block.height, None)
            if event is not None:
                event.set()

    async def _execute_block(self, block: Block) -> None:
        for transaction in block.transactions:
            payload = transaction.payload
            if transaction.encrypted:
                if self.decryptor is None:
                    self.state.rejected.append(
                        f"{transaction.tx_id}: no decryptor attached"
                    )
                    continue
                try:
                    # The order is already final here — decrypt-after-order.
                    payload = await self.decryptor(payload)
                except Exception as exc:  # noqa: BLE001 - journal and move on
                    self.state.rejected.append(f"{transaction.tx_id}: {exc}")
                    continue
            self.state.execute(payload)

    # -- inspection -------------------------------------------------------------------

    def head(self) -> Block | None:
        return self.chain[-1] if self.chain else None

    def state_root(self) -> bytes:
        return self.state.state_root()
