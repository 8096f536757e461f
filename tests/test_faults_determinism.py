"""Determinism contract of the fault-injection harness.

The whole point of a *seeded* FaultPlan is reproducible chaos: the same
seed must yield the same fault schedule (so a failing chaos run can be
replayed), and corrupted shares must be rejected by share verification
without ever poisoning the combined result.
"""

import asyncio
import random

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.core.protocols import OperationRequest, make_operation
from repro.errors import InvalidShareError
from repro.network.faults import FaultPlan, FaultyNetwork, LinkFaults, corrupt_frame
from repro.network.local import LocalHub
from repro.service.cluster import LocalCluster

_BUSY = LinkFaults(
    drop=0.2, delay=0.005, jitter=0.01, duplicate=0.15, reorder=0.15, corrupt=0.1
)


def _wrapped(plan: FaultPlan, *node_ids: int) -> dict[int, FaultyNetwork]:
    """A fresh FaultyNetwork for each node, over one unstarted hub."""
    hub = LocalHub()
    return {i: FaultyNetwork(hub.endpoint(i), plan) for i in node_ids}


class TestInjectorDeterminism:
    """``FaultyNetwork.draw`` is the per-message decision its ``send``
    acts on: ``(drop, duplicate, reorder, corrupt, delay)``."""

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=42, default=_BUSY)
        a, b = _wrapped(plan, 1)[1], _wrapped(plan, 1)[1]
        seq_a = [a.draw(2) for _ in range(300)]
        seq_b = [b.draw(2) for _ in range(300)]
        assert seq_a == seq_b
        # The schedule is non-trivial: every fault kind actually fires.
        drops, duplicates, reorders, corrupts, delays = zip(*seq_a)
        assert any(drops)
        assert any(duplicates)
        assert any(reorders)
        assert any(corrupts)
        assert all(delay >= 0.005 for delay in delays)

    def test_links_independent_of_interleaving(self):
        """Per-link streams do not bleed into each other: drawing links in a
        different global order yields the same per-link schedule.  A
        ``links`` override applies to its one direction only."""
        plan = FaultPlan(seed=7, default=_BUSY, links={"2->1": LinkFaults(drop=1.0)})
        a, b = _wrapped(plan, 1, 2), _wrapped(plan, 1, 2)
        interleaved = {(1, 2): [], (1, 3): [], (2, 1): []}
        for _ in range(100):
            for src, dst in interleaved:
                interleaved[(src, dst)].append(a[src].draw(dst))
        sequential = {
            (src, dst): [b[src].draw(dst) for _ in range(100)]
            for src, dst in interleaved
        }
        assert interleaved == sequential
        assert all(drop for drop, *_ in sequential[(2, 1)])
        assert not all(drop for drop, *_ in sequential[(1, 2)])

    def test_different_seeds_differ(self):
        a = _wrapped(FaultPlan(seed=1, default=_BUSY), 1)[1]
        b = _wrapped(FaultPlan(seed=2, default=_BUSY), 1)[1]
        assert [a.draw(2) for _ in range(100)] != [b.draw(2) for _ in range(100)]


class TestCorruption:
    def test_corrupt_frame_preserves_envelope(self):
        message = ProtocolMessage("inst-7", 2, 1, Channel.P2P, b"share-payload")
        frame = b"\x01" + message.to_bytes()  # multiplexer-tagged, as on wire
        corrupted = corrupt_frame(frame, random.Random(5))
        assert corrupted != frame
        assert corrupted[:1] == b"\x01"
        parsed = ProtocolMessage.from_bytes(corrupted[1:])
        assert (parsed.instance_id, parsed.sender, parsed.round) == ("inst-7", 2, 1)
        assert parsed.payload != message.payload

    def test_corrupt_frame_is_deterministic(self):
        message = ProtocolMessage("inst", 1, 0, Channel.P2P, b"0123456789")
        frame = message.to_bytes()
        assert corrupt_frame(frame, random.Random(3)) == corrupt_frame(
            frame, random.Random(3)
        )

    def test_unparseable_frame_still_corrupted(self):
        assert corrupt_frame(b"not a protocol frame", random.Random(1)) != (
            b"not a protocol frame"
        )
        assert corrupt_frame(b"", random.Random(1)) == b""

    def test_corrupted_share_rejected_without_poisoning(self, keys_cks05):
        """A flipped payload byte is rejected by share verification; the
        combine over the remaining honest shares is unaffected."""
        keys = keys_cks05
        request = OperationRequest("coin", b"poison-check")
        ops = {
            share.id: make_operation(
                keys.scheme, keys.public_key, share, request
            )
            for share in keys.key_shares
        }
        payloads = {pid: op.create_own_share() for pid, op in ops.items()}

        clean = make_operation(
            keys.scheme, keys.public_key, keys.share_for(1), request
        )
        clean.create_own_share()
        clean.accept_share(payloads[2])
        reference = clean.combine()

        victim = ops[1]
        corrupted = bytearray(payloads[3])
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(InvalidShareError):
            victim.accept_share(bytes(corrupted))
        assert victim.share_count == 1  # the bad share was never stored
        victim.accept_share(payloads[2])
        assert victim.combine() == reference


@pytest.mark.integration
class TestEndToEndDeterminism:
    def test_service_chaos_reproducible(self, all_keys):
        """Two fresh clusters under the same seeded plan both finalize and
        agree on the result, with corrupted shares visibly rejected."""
        plan = FaultPlan(seed=77, byzantine=(2,), default=LinkFaults(drop=0.1))

        async def one_run():
            async with LocalCluster(
                all_keys, fault_plan=plan, instance_timeout=10.0
            ) as cluster:
                client = cluster.client
                ciphertext = await client.encrypt(
                    "sg02", b"same seed, same story", b"l", node_id=1
                )
                return await client.decrypt("sg02", ciphertext, b"l")

        first = asyncio.run(one_run())
        second = asyncio.run(one_run())
        assert first == second == b"same seed, same story"

    def test_faulty_network_counts_faults(self, all_keys):
        """Injected faults surface on repro_faults_injected for the node."""
        plan = FaultPlan(seed=5, default=LinkFaults(drop=0.5))

        async def scenario():
            async with LocalCluster(
                all_keys, fault_plan=plan, instance_timeout=10.0
            ) as cluster:
                nodes, client = cluster.nodes, cluster.client
                await client.flip_coin("cks05", b"count-faults")
                text = "\n".join(n.render_metrics() for n in nodes)
                assert 'repro_faults_injected{kind="drop"' in text or (
                    'kind="drop"' in text
                )

        asyncio.run(scenario())
