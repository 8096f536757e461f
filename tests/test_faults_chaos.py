"""Chaos suite: every scheme under every fault kind, plus structured aborts.

Thetacrypt (§3.2) tolerates up to t corrupted nodes over reliable channels;
the :class:`~repro.network.faults.FaultyNetwork` deliberately violates the
channel assumption with seeded faults.  These tests pin down the two halves
of the robustness claim on a 4-node, t=1 service cluster:

* with at most t faulty nodes (or only message-level faults) every
  non-interactive scheme still finalizes, and
* with more than t faulty nodes the instance aborts with the *correct*
  structured reason (``insufficient_shares`` vs ``byzantine_detected``),
  visible in the RPC error, the status endpoint, and node stats.

KG20/FROST needs all n parties in both rounds (it is not robust, §4.5), so
it only appears under the lossless fault kinds (delay/duplicate/reorder).
"""

import asyncio

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import derive_instance_id
from repro.errors import ProtocolError, RpcError
from repro.network.faults import FaultPlan, LinkFaults, Partition
from repro.schemes import get_scheme
from repro.serialization import hexlify
from repro.service.cluster import LocalCluster
from repro.telemetry import parse_text

from tests.test_telemetry_service import _metric

ALL_SCHEMES = ("sg02", "bz03", "sh00", "bls04", "kg20", "cks05")

#: Fault kinds that never lose or damage a message: the only ones the
#: non-robust KG20 flow can run under.
LOSSLESS = ("delay", "duplicate", "reorder")


def _isolate(node: int) -> Partition:
    """Node ``node`` cut off from the other three, for good."""
    return Partition(groups=((node,), tuple(i for i in range(1, 5) if i != node)))


#: One seeded plan per fault kind the injector supports.
PLANS = {
    "drop": FaultPlan(seed=11, default=LinkFaults(drop=0.25)),
    "delay": FaultPlan(seed=12, default=LinkFaults(delay=0.01, jitter=0.02)),
    "duplicate": FaultPlan(seed=13, default=LinkFaults(duplicate=0.5)),
    "reorder": FaultPlan(
        seed=14, default=LinkFaults(reorder=0.3), reorder_hold=0.02
    ),
    "corrupt": FaultPlan(seed=15, default=LinkFaults(corrupt=0.25)),
    "partition": FaultPlan(
        seed=16,
        partitions=(Partition(groups=((1, 2), (3, 4)), start=0.0, heal=0.4),),
    ),
    # Node 4 cut off from t=0: to its peers, a crash-stop.
    "crash": FaultPlan(seed=17, partitions=(_isolate(4),)),
}


def _status(node, instance_id: str) -> str | None:
    """The node's status for an instance, None while it knows none."""
    try:
        return node.instances.record(instance_id).status.value
    except ProtocolError:
        return None


async def _exercise(client, scheme, tag):
    """One end-to-end threshold operation appropriate for ``scheme``."""
    data = f"chaos {tag} {scheme}".encode()
    if scheme in ("sg02", "bz03"):
        ciphertext = await client.encrypt(scheme, data, b"lbl")
        assert await client.decrypt(scheme, ciphertext, b"lbl") == data
    elif scheme in ("sh00", "bls04", "kg20"):
        signature = await client.sign(scheme, data)
        assert await client.verify_signature(scheme, data, signature)
    else:
        coin = await client.flip_coin(scheme, data)
        assert len(coin) == 32


@pytest.mark.integration
class TestChaosMatrix:
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_all_schemes_finalize_under_fault(self, all_keys, kind):
        async def scenario():
            async with LocalCluster(
                all_keys, fault_plan=PLANS[kind], instance_timeout=10.0
            ) as cluster:
                client = cluster.client
                for scheme in ALL_SCHEMES:
                    if scheme == "kg20" and kind not in LOSSLESS:
                        continue  # FROST needs all n parties (§4.5)
                    await _exercise(client, scheme, kind)

        asyncio.run(scenario())

    def test_crash_plus_byzantine_within_tolerance(self, all_keys):
        """1 cut off (to its peers, crashed) + 1 byzantine of 4 (t=1 ⇒
        quorum 2): still finalizes, and both faults show in node 1's scrape.

        The plan's byte flips do not survive BLS04's G1 decode.  What drives
        the sign path's verify-after-combine failure is a well-formed share
        of another message under node 3's id, planted at node 1 ahead of
        the request: it forms the quorum with node 1's own share, fails the
        combined check and is evicted before node 2's share completes it."""
        plan = FaultPlan(seed=23, partitions=(_isolate(4),), byzantine=(3,))
        message = b"chaos tolerated bls04"
        forged = get_scheme("bls04").partial_sign(
            all_keys["bls04"].share_for(3), b"not the message"
        )
        instance_id = derive_instance_id("sign", "bls04", message, b"")

        async def scenario():
            async with LocalCluster(
                all_keys, fault_plan=plan, instance_timeout=10.0
            ) as cluster:
                client = cluster.client
                await _exercise(client, "sg02", "tolerated")
                await cluster.nodes[0].instances.handle_network_message(
                    ProtocolMessage(
                        instance_id, 3, 0, Channel.P2P, forged.to_bytes()
                    )
                )
                await _exercise(client, "bls04", "tolerated")
                hops = cluster.nodes[0].instances.record(instance_id).trace.events
                return parse_text(await client.metrics(1)), [
                    (e.attributes["sender"], e.attributes["outcome"])
                    for e in hops
                    if e.name == "hop"
                ]

        parsed, hops = asyncio.run(scenario())
        # The planted share waited in node 1's backlog, so it is the first
        # hop the instance judged.
        assert hops[0] == (3, "rejected")
        for kind in ("partition", "corrupt"):
            assert _metric(parsed, "repro_faults_injected", kind=kind) >= 1
        assert _metric(
            parsed, "repro_tri_messages_total", scheme="bls04", outcome="rejected"
        ) >= 1


@pytest.mark.integration
class TestStructuredAborts:
    def test_insufficient_shares_when_majority_crashed(self, all_keys):
        """3 of 4 cut off: the survivor cannot reach quorum and says so."""
        plan = FaultPlan(
            seed=31, partitions=(_isolate(2), _isolate(3), _isolate(4))
        )
        data = b"abort: not enough shares"

        async def scenario():
            async with LocalCluster(
                all_keys, fault_plan=plan, instance_timeout=1.5
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                with pytest.raises(RpcError) as err:
                    await client.call(
                        1, "flip_coin", {"key_id": "cks05", "data": hexlify(data)}
                    )
                assert getattr(err.value, "reason", None) == "insufficient_shares"

                instance_id = derive_instance_id("coin", "cks05", data, b"")
                status = await client.status(instance_id, node_id=1)
                assert status["status"] == "failed"
                assert status["abort_reason"] == "insufficient_shares"

                stats = nodes[0].stats()
                assert stats["aborts"].get("insufficient_shares", 0) >= 1

        asyncio.run(scenario())

    def test_kg20_stalls_when_one_node_is_down(self, all_keys):
        """FROST's signing group waits for all n members (§4.5): with one
        node stopped, a KG20 signature aborts where CKS05 still answers."""
        data = b"abort: frost needs everyone"

        async def scenario():
            async with LocalCluster(all_keys, instance_timeout=1.5) as cluster:
                await cluster.stop(4)
                client = cluster.client
                assert len(await client.flip_coin("cks05", data)) == 32
                with pytest.raises(RpcError) as err:
                    await client.call(
                        1, "sign", {"key_id": "kg20", "data": hexlify(data)}
                    )
                assert getattr(err.value, "reason", None) == "insufficient_shares"

        asyncio.run(scenario())

    def test_byzantine_detected_when_majority_corrupt(self, all_keys):
        """All peers byzantine: the honest node rejects every share and
        classifies the resulting timeout as ``byzantine_detected``."""
        plan = FaultPlan(seed=32, byzantine=(2, 3, 4))
        data = b"abort: corrupted quorum"

        async def scenario():
            async with LocalCluster(
                all_keys, fault_plan=plan, instance_timeout=1.5
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                # Fan the request out so peers actually send (bad) shares.
                results = await client.broadcast(
                    "flip_coin", {"key_id": "cks05", "data": hexlify(data)}
                )
                honest = results[1]
                assert isinstance(honest, RpcError)
                assert getattr(honest, "reason", None) == "byzantine_detected"

                instance_id = derive_instance_id("coin", "cks05", data, b"")
                status = await client.status(instance_id, node_id=1)
                assert status["abort_reason"] == "byzantine_detected"
                assert nodes[0].stats()["aborts"].get("byzantine_detected", 0) >= 1

        asyncio.run(scenario())


@pytest.mark.integration
class TestCrashRecoveryRestart:
    """Crash recovery through the *real* path: the crashed node is torn
    down and a fresh ThetacryptNode boots over the same ``data_dir`` —
    not merely a delivery pause, which would leave volatile state
    implausibly intact."""

    def test_restart_recovers_state_and_aborts_in_flight(self, all_keys, tmp_path):
        async def scenario():
            async with LocalCluster(all_keys, data_root=tmp_path) as cluster:
                nodes, client = cluster.nodes, cluster.client
                # One fully finalized operation: its result must land in
                # node 4's durable cache.
                data = b"finalized before the crash"
                signature = await client.sign("bls04", data)
                done_id = derive_instance_id("sign", "bls04", data, b"")
                for _ in range(200):
                    if _status(nodes[3], done_id) == "finished":
                        break
                    await asyncio.sleep(0.01)
                assert _status(nodes[3], done_id) == "finished"

                # One instance in flight on node 4 only: peers never saw
                # the request, so it cannot reach quorum and is still
                # pending when the node dies.
                pending = b"in flight at the crash"
                pending_id = derive_instance_id("sign", "bls04", pending, b"")
                submit = asyncio.ensure_future(
                    client.call(
                        4, "sign", {"key_id": "bls04", "data": hexlify(pending)}
                    )
                )
                for _ in range(200):
                    if _status(nodes[3], pending_id) is not None:
                        break
                    await asyncio.sleep(0.01)
                assert _status(nodes[3], pending_id) in (
                    "created",
                    "running",
                )
                submit.cancel()
                await asyncio.gather(submit, return_exceptions=True)

                # "kill -9": abrupt teardown — executors cancelled, no
                # terminal journal record for the pending instance — then
                # a fresh process life over the same data_dir and hub slot.
                # The dealer's re-install of identical material is a no-op.
                await cluster.restart(4)
                restarted = cluster.nodes[3]

                # Keys came back from the durable keystore.
                assert len(restarted.keys) == len(all_keys)
                stats = restarted.stats()
                assert stats["recovery"]["keys"] == len(all_keys)
                assert stats["recovery"]["results"] >= 1
                assert stats["recovery"]["aborted"] >= 1
                assert stats["aborts"].get("crash_recovery", 0) >= 1

                # The restarted node has a fresh RPC port: the reopened
                # client.  A duplicate of the finalized request is served
                # from the durable cache, without re-running the protocol.
                client = cluster.client
                result = await client.call(
                    4, "sign", {"key_id": "bls04", "data": hexlify(data)}
                )
                assert result["result"] == hexlify(signature)

                # An answered request is never run twice, on any node: a
                # duplicate asked of every node, the restarted one included,
                # folds into its outcome and ends no new instance.
                nodes = cluster.nodes
                ended = [n.stats()["instances"] for n in nodes]
                hits = [
                    n.instances.metrics.coalesced_requests.labels("result_cache")
                    for n in nodes
                ]
                before = [hit.value for hit in hits]
                replies = await client.broadcast(
                    "sign", {"key_id": "bls04", "data": hexlify(data)}
                )
                assert {r["result"] for r in replies.values()} == {hexlify(signature)}
                assert [hit.value for hit in hits] == [b + 1 for b in before]
                assert [n.stats()["instances"] for n in nodes] == ended

                # The in-flight instance is aborted with the structured
                # crash_recovery reason, visible over the status RPC.
                status = await client.status(pending_id, node_id=4)
                assert status["status"] == "failed"
                assert status["abort_reason"] == "crash_recovery"

                # The recovered node participates in new protocol runs.
                after = b"signed after recovery"
                sig2 = await client.sign("bls04", after)
                assert await client.verify_signature("bls04", after, sig2)

        asyncio.run(scenario())
