"""Proactive refresh: the TRI protocol and the service RPC end to end."""

import asyncio
from dataclasses import replace

import pytest

from repro.core.orchestration import KeyManager, keymanager
from repro.errors import KeyManagementError, RpcError, StorageError
from repro.groups import get_group
from repro.schemes import generate_keys
from repro.schemes.cks05 import Cks05Coin
from repro.schemes.keystore import node_keystore
from repro.service import ThetacryptClient, make_local_configs
from repro.service.cluster import LocalCluster
from repro.service.daemon import load_node


@pytest.mark.integration
class TestRefreshRpc:
    def test_refresh_preserves_key_and_function(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                nodes, client = cluster.nodes, cluster.client
                value_before = await client.flip_coin("coin", b"epoch-test")
                old_shares = {
                    n.config.node_id: n.keys.get("coin").key_share.value
                    for n in nodes
                }
                group_key = await client.refresh_key("coin")
                assert group_key == keys_cks05.public_key.h.to_bytes()
                new_shares = {
                    n.config.node_id: n.keys.get("coin").key_share.value
                    for n in nodes
                }
                # Every share changed...
                assert all(
                    new_shares[i] != old_shares[i] for i in new_shares
                )
                # ...but the coin (a deterministic function of the secret)
                # is identical — same key, new shares.
                value_after = await client.flip_coin("coin", b"epoch-test")
                assert value_after == value_before

        asyncio.run(scenario())

    def test_repeated_refreshes(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client = cluster.client
                for _ in range(3):
                    await client.refresh_key("coin")
                value = await client.flip_coin("coin", b"after-three")
                assert len(value) == 32

        asyncio.run(scenario())

    def test_refresh_sg02_key_keeps_old_ciphertexts_decryptable(self, keys_sg02):
        async def scenario():
            async with LocalCluster({"enc": keys_sg02}) as cluster:
                client = cluster.client
                ciphertext = await client.encrypt("enc", b"pre-refresh secret", b"l")
                await client.refresh_key("enc")
                # Ciphertexts made before the refresh still decrypt: the
                # public key never changed.
                plaintext = await client.decrypt("enc", ciphertext, b"l")
                assert plaintext == b"pre-refresh secret"

        asyncio.run(scenario())

    def test_refresh_kg20_key(self, keys_kg20):
        async def scenario():
            async with LocalCluster({"wallet": keys_kg20}) as cluster:
                client = cluster.client
                await client.refresh_key("wallet")
                signature = await client.sign("wallet", b"post-refresh")
                assert await client.verify_signature(
                    "wallet", b"post-refresh", signature
                )

        asyncio.run(scenario())

    def test_concurrent_refresh_calls_share_one_refresh(self, keys_cks05):
        """A second ``refresh_key`` that joins the running instance reads the
        result of the protocol that ran, not of its own that never did."""

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                nodes, client = cluster.nodes, cluster.client
                value_before = await client.flip_coin("coin", b"concurrent")
                old_shares = [n.keys.get("coin").key_share.value for n in nodes]
                answers = await asyncio.gather(
                    *(n.refresh_key("coin") for n in nodes for _ in range(2))
                )
                assert answers == [keys_cks05.public_key.h.to_bytes().hex()] * 8
                new_shares = [n.keys.get("coin").key_share.value for n in nodes]
                assert all(new != old for new, old in zip(new_shares, old_shares))
                # Refreshed exactly once: the shares still reconstruct the coin.
                assert await client.flip_coin("coin", b"concurrent") == value_before

        asyncio.run(scenario())

    def test_concurrent_dkg_calls_share_one_dkg(self):
        async def scenario():
            async with LocalCluster({}) as cluster:
                nodes, client = cluster.nodes, cluster.client
                answers = await asyncio.gather(
                    *(n.run_dkg("k", "cks05") for n in nodes for _ in range(2))
                )
                assert len(set(answers)) == 1
                assert {n.keys.get("k").public_key.h.to_bytes().hex() for n in nodes} == (
                    set(answers)
                )
                assert len(await client.flip_coin("k", b"after the dkg")) == 32

        asyncio.run(scenario())

    def test_refresh_rejects_non_dl_schemes(self, keys_bls04):
        async def scenario():
            async with LocalCluster({"sig": keys_bls04}) as cluster:
                client = cluster.client
                with pytest.raises(RpcError):
                    await client.refresh_key("sig")

        asyncio.run(scenario())


def _dealer_coin(km, name: bytes) -> bytes:
    """The coin the dealt secret defines, computed from dealer shares."""
    coin = Cks05Coin()
    shares = [coin.create_coin_share(km.share_for(i), name) for i in (1, 2)]
    return coin.combine(km.public_key, name, shares)


@pytest.mark.integration
class TestRefreshOnDurableNodes:
    def test_refresh_works_again_after_restarts(self, keys_cks05, tmp_path):
        """The refresh epoch is named by the key's current public key, which
        the keystore keeps — not by a counter that restarts at 1 and collides
        with the first epoch's finished instance."""

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}, data_root=tmp_path) as cluster:
                client = cluster.client
                assert await client.flip_coin("coin", b"epoch-0") == _dealer_coin(
                    keys_cks05, b"epoch-0"
                )
                await client.refresh_key("coin")

                await cluster.restart(1, 2, 3, 4)
                client = cluster.client
                group_key = await client.refresh_key("coin")
                assert group_key == keys_cks05.public_key.h.to_bytes()
                assert await client.flip_coin("coin", b"epoch-2") == _dealer_coin(
                    keys_cks05, b"epoch-2"
                )

                await cluster.restart(3)
                client = cluster.client
                await client.refresh_key("coin")
                assert await client.flip_coin("coin", b"epoch-3") == _dealer_coin(
                    keys_cks05, b"epoch-3"
                )
                # Every epoch swapped the share: four distinct values per node.
                assert cluster.nodes[2].keys.get("coin").key_share.value != (
                    keys_cks05.share_for(3).value
                )

        asyncio.run(scenario())

    def test_daemon_restarts_from_dealer_files_after_a_refresh(
        self, keys_cks05, tmp_path
    ):
        """``load_node`` re-installs the dealer keystore at every boot; after a
        refresh the share a node holds differs from it, and is the one to keep."""
        node_dirs = []
        for config in make_local_configs(4, 1, base_port=19500, rpc_base_port=0):
            node_dir = tmp_path / f"node{config.node_id}"
            node_dir.mkdir()
            durable = replace(config, data_dir=str(node_dir / "data"))
            (node_dir / "config.json").write_text(durable.to_json())
            (node_dir / "keystore.json").write_text(
                node_keystore({"coin": keys_cks05}, config.node_id)
            )
            node_dirs.append(node_dir)

        async def life(body):
            nodes = [
                load_node(str(d / "config.json"), str(d / "keystore.json"))
                for d in node_dirs
            ]
            for node in nodes:
                await node.start()
            client = ThetacryptClient({n.config.node_id: n.rpc_address for n in nodes})
            try:
                await body(client, nodes)
            finally:
                await client.close()
                for node in nodes:
                    await node.stop()

        async def refresh(client, nodes):
            await client.refresh_key("coin")

        async def serve_on_the_refreshed_shares(client, nodes):
            for node in nodes:
                held = node.keys.get("coin").key_share
                assert held.value != keys_cks05.share_for(held.id).value
            assert await client.flip_coin("coin", b"after the restart") == (
                _dealer_coin(keys_cks05, b"after the restart")
            )
            # Another key under the same id is still refused.
            other = generate_keys("cks05", 1, 4)
            with pytest.raises(KeyManagementError):
                nodes[0].install_key("coin", "cks05", other.public_key, other.share_for(1))

        asyncio.run(life(refresh))
        asyncio.run(life(serve_on_the_refreshed_shares))

    def test_every_keystore_snapshot_of_a_refresh_holds_the_share(
        self, keys_cks05, tmp_path, monkeypatch
    ):
        """The swap is one atomic overwrite: a process killed at any point
        of a refresh finds exactly one share for the key in its keystore."""
        snapshots = []
        real_write = keymanager.write_versioned

        def recording_write(path, payload, version):
            real_write(path, payload, version)
            snapshots.append([entry.key_id for entry in KeyManager(path).list_keys()])

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}, data_root=tmp_path) as cluster:
                monkeypatch.setattr(keymanager, "write_versioned", recording_write)
                await cluster.client.refresh_key("coin")

        asyncio.run(scenario())
        assert snapshots == [["coin"]] * 4

    @pytest.mark.parametrize("failing_write", [1, 2])
    def test_failed_keystore_write_leaves_a_usable_share(
        self, keys_cks05, tmp_path, monkeypatch, failing_write
    ):
        """Whichever keystore write of a refresh fails (there is only one
        now), every node still holds a share that works: the old one."""
        real_write = keymanager.write_versioned
        writes = {}

        def failing(path, payload, version):
            writes[path] = writes.get(path, 0) + 1
            if writes[path] == failing_write:
                raise StorageError(f"disk full writing {path}")
            real_write(path, payload, version)

        async def scenario():
            async with LocalCluster({"coin": keys_cks05}, data_root=tmp_path) as cluster:
                client = cluster.client
                monkeypatch.setattr(keymanager, "write_versioned", failing)
                if failing_write == 1:
                    with pytest.raises(RpcError):
                        await client.refresh_key("coin")
                    for node_id, node in enumerate(cluster.nodes, 1):
                        assert node.keys.get("coin").key_share.value == (
                            keys_cks05.share_for(node_id).value
                        )
                else:
                    await client.refresh_key("coin")
                assert await client.flip_coin("coin", b"after") == _dealer_coin(
                    keys_cks05, b"after"
                )

        asyncio.run(scenario())


class TestReshareProtocolUnit:
    """A refresh at one party: dealers 1..t+1, each to qualify."""

    @staticmethod
    def _refresh(party_id, secret, dealers=(1, 2)):
        from repro.core.protocols import DealProtocol

        group = get_group("ed25519")
        return DealProtocol("ref", party_id, 1, 4, group, dealers, secret, need=2)

    def test_non_dealers_send_nothing(self):
        protocol = self._refresh(4, None)
        assert protocol.do_round() == []

    def test_dealer_sends_directed_deals(self):
        protocol = self._refresh(1, 5)
        messages = protocol.do_round()
        assert sorted(m.recipient for m in messages) == [2, 3, 4]

    def test_deal_from_non_dealer_rejected(self):
        # A rogue non-dealer (party 3 in a t=1 refresh, dealers = {1, 2})
        # forges a deal; the receiver must reject it.
        from repro.errors import InvalidShareError

        receiver = self._refresh(1, 5)
        receiver.do_round()
        rogue = self._refresh(3, 7, dealers=(1, 3))  # claims a dealership
        forged = next(m for m in rogue.do_round() if m.recipient == 1)
        with pytest.raises(InvalidShareError, match="not a dealer"):
            receiver.update(forged)

    def test_mismatched_sender_rejected(self):
        from repro.core.messages import ProtocolMessage
        from repro.errors import InvalidShareError

        receiver = self._refresh(3, None)
        receiver.do_round()
        dealer = self._refresh(1, 9)
        message = next(m for m in dealer.do_round() if m.recipient == 3)
        spoofed = ProtocolMessage(
            message.instance_id, 2, 0, message.channel, message.payload, 3
        )
        with pytest.raises(InvalidShareError, match="claims dealer 1"):
            receiver.update(spoofed)
