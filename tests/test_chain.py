"""The blockchain host platform: types, state machine, validators, Θ on top."""

import asyncio

import pytest

from repro.chain import AccountState, Block, Transaction, ValidatorNode, block_hash
from repro.chain.types import genesis_parent
from repro.network.local import LocalHub
from repro.schemes import get_scheme
from repro.service.cluster import LocalCluster


class TestTypes:
    def test_transaction_round_trip(self):
        from repro.serialization import Reader

        tx = Transaction("alice", b"mint alice 100", encrypted=False)
        reader = Reader(tx.to_bytes())
        restored = Transaction.read_from(reader)
        reader.finish()
        assert restored == tx

    def test_block_round_trip(self):
        block = Block(
            3,
            bytes(32),
            2,
            (Transaction("a", b"x"), Transaction("b", b"y", encrypted=True)),
        )
        assert Block.from_bytes(block.to_bytes()) == block

    def test_block_hash_is_content_addressed(self):
        a = Block(1, genesis_parent(), 1, (Transaction("a", b"x"),))
        b = Block(1, genesis_parent(), 1, (Transaction("a", b"y"),))
        assert block_hash(a) != block_hash(b)
        assert block_hash(a) == block_hash(a)

    def test_tx_id_stable(self):
        tx = Transaction("carol", b"transfer carol dave 5")
        assert tx.tx_id == Transaction("carol", b"transfer carol dave 5").tx_id


class TestAccountState:
    def test_mint_and_transfer(self):
        state = AccountState()
        state.execute(b"mint alice 100")
        state.execute(b"transfer alice bob 30")
        assert state.balances == {"alice": 70, "bob": 30}
        assert len(state.applied) == 2

    def test_overdraft_rejected(self):
        state = AccountState()
        state.execute(b"mint alice 10")
        state.execute(b"transfer alice bob 50")
        assert state.balances == {"alice": 10}
        assert len(state.rejected) == 1

    def test_malformed_commands_journaled(self):
        state = AccountState()
        for bad in (b"", b"steal everything", b"mint alice ten", b"mint alice -5",
                    b"\xff\xfe"):
            state.execute(bad)
        assert state.balances == {}
        assert len(state.rejected) == 5

    def test_state_root_deterministic_and_order_insensitive(self):
        a, b = AccountState(), AccountState()
        a.execute(b"mint x 1")
        a.execute(b"mint y 2")
        b.execute(b"mint y 2")
        b.execute(b"mint x 1")
        assert a.state_root() == b.state_root()

    def test_state_root_changes_with_balances(self):
        a, b = AccountState(), AccountState()
        a.execute(b"mint x 1")
        b.execute(b"mint x 2")
        assert a.state_root() != b.state_root()


def _make_chain(n=4):
    hub = LocalHub(latency=lambda a, b: 0.001)
    validators = [
        ValidatorNode(i, n, hub.endpoint(i)) for i in range(1, n + 1)
    ]
    return hub, validators


@pytest.mark.integration
class TestValidators:
    def test_replicated_execution(self):
        async def scenario():
            hub, validators = _make_chain()
            for validator in validators:
                await validator.start()
            try:
                validators[0].submit_transaction(Transaction("faucet", b"mint alice 100"))
                validators[0].submit_transaction(
                    Transaction("alice", b"transfer alice bob 25")
                )
                await validators[0].propose()
                blocks = await asyncio.gather(
                    *(v.await_height(1) for v in validators)
                )
                assert len({block_hash(b) for b in blocks}) == 1
                roots = {v.state_root() for v in validators}
                assert len(roots) == 1
                assert validators[2].state.balances == {"alice": 75, "bob": 25}
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())

    def test_concurrent_proposals_are_totally_ordered(self):
        async def scenario():
            hub, validators = _make_chain()
            for validator in validators:
                await validator.start()
            try:
                validators[0].submit_transaction(Transaction("f", b"mint a 1"))
                validators[1].submit_transaction(Transaction("f", b"mint b 2"))
                validators[2].submit_transaction(Transaction("f", b"mint c 3"))
                await asyncio.gather(
                    validators[0].propose(),
                    validators[1].propose(),
                    validators[2].propose(),
                )
                await asyncio.gather(*(v.await_height(3) for v in validators))
                chains = [
                    [block_hash(b) for b in v.chain] for v in validators
                ]
                assert all(c == chains[0] for c in chains)
                assert all(
                    v.state.balances == {"a": 1, "b": 2, "c": 3}
                    for v in validators
                )
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())

    def test_an_undecodable_block_is_skipped_by_every_replica(self):
        """A proposal whose body does not decode, ordered by the TOB like
        any other, is journaled and takes no height on every validator;
        the next valid block still executes everywhere."""
        from repro.chain.validator import _TOB_BLOCK

        async def scenario():
            hub, validators = _make_chain()
            for validator in validators:
                await validator.start()
            try:
                garbage = bytes([_TOB_BLOCK]) + b"\x00\x01\x02\x03"
                await validators[1]._tob.submit(garbage)
                await hub.drain()  # ordered (and executed) before the valid one
                validators[0].submit_transaction(Transaction("f", b"mint alice 5"))
                await validators[0].propose()
                blocks = await asyncio.gather(
                    *(v.await_height(1, timeout=5.0) for v in validators)
                )
                assert {b.proposer for b in blocks} == {1}
                assert len({v.state_root() for v in validators}) == 1
                assert all(
                    len(v.chain) == 1
                    and v.state.balances == {"alice": 5}
                    and len(v.state.rejected) == 1
                    and v.state.rejected[0].startswith("block from node 2: ")
                    for v in validators
                )
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())

    def test_parent_links(self):
        async def scenario():
            hub, validators = _make_chain(3)
            for validator in validators:
                await validator.start()
            try:
                for round_number in range(3):
                    validators[0].submit_transaction(
                        Transaction("f", b"mint acct %d" % (round_number + 1))
                    )
                    await validators[0].propose()
                await validators[1].await_height(3)
                chain = validators[1].chain
                assert chain[0].parent == genesis_parent()
                assert chain[1].parent == block_hash(chain[0])
                assert chain[2].parent == block_hash(chain[1])
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())

    def test_empty_mempool_proposes_nothing(self):
        async def scenario():
            hub, validators = _make_chain(2)
            for validator in validators:
                await validator.start()
            try:
                assert await validators[0].propose() == 0
                assert validators[0].chain == []
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())

    def test_encrypted_tx_without_decryptor_is_rejected(self):
        async def scenario():
            hub, validators = _make_chain(2)
            for validator in validators:
                await validator.start()
            try:
                validators[0].submit_transaction(
                    Transaction("u", b"\x01\x02", encrypted=True)
                )
                await validators[0].propose()
                await validators[0].await_height(1)
                assert validators[0].state.balances == {}
                assert validators[0].state.rejected
            finally:
                for validator in validators:
                    await validator.stop()

        asyncio.run(scenario())


@pytest.mark.integration
class TestFrontRunningProtectedChain:
    def test_encrypted_mempool_end_to_end(self, keys_sg02):
        """Fig. 1 + §2.3: ciphertexts ordered first, decrypted after, by Θ."""

        async def scenario():
            n = 4
            # The Θ-network (in-process transport, co-located with validators).
            async with LocalCluster({"mempool": keys_sg02}, parties=n) as theta:

                async def decryptor(ciphertext: bytes) -> bytes:
                    return await theta.client.decrypt("mempool", ciphertext)

                chain_hub = LocalHub(latency=lambda a, b: 0.001)
                validators = [
                    ValidatorNode(i, n, chain_hub.endpoint(i), decryptor=decryptor)
                    for i in range(1, n + 1)
                ]
                for validator in validators:
                    await validator.start()
                try:
                    cipher = get_scheme("sg02")
                    commands = [b"mint alice 1000", b"transfer alice bob 400"]
                    for command in commands:
                        ciphertext = cipher.encrypt(
                            keys_sg02.public_key, command, b""
                        ).to_bytes()
                        validators[0].submit_transaction(
                            Transaction("user", ciphertext, encrypted=True)
                        )
                    # Nothing about the plaintext is visible in the mempool.
                    for tx in validators[0].mempool:
                        assert b"alice" not in tx.payload
                    await validators[0].propose()
                    await asyncio.gather(*(v.await_height(1) for v in validators))
                    assert all(
                        v.state.balances == {"alice": 600, "bob": 400}
                        for v in validators
                    )
                    assert len({v.state_root() for v in validators}) == 1
                finally:
                    for validator in validators:
                        await validator.stop()

        asyncio.run(scenario())
