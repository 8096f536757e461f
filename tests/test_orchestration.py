"""Orchestration: key manager, instance records, executor, instance manager."""

import asyncio
import importlib
import inspect
import pkgutil

import pytest

import repro.core.protocols as protocols_package
from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import (
    InstanceManager,
    InstanceStatus,
    KeyManager,
)
from repro.core.orchestration.instance import InstanceRecord
from repro.core.orchestration.keymanager import KEYSTORE_VERSION
from repro.core.protocols import NonInteractiveProtocol, OperationRequest, make_operation
from repro.core.tri import ThresholdRoundProtocol
from repro.errors import KeyManagementError, ProtocolAbortedError, ProtocolError
from repro.schemes import generate_keys
from repro.schemes.base import get_scheme
from repro.schemes.keystore import keystore_to_json
from repro.storage.atomic import write_versioned
from repro.telemetry import MetricRegistry


class TestKeyManager:
    def test_register_and_get(self, keys_bls04):
        km = KeyManager()
        km.register("k1", "bls04", keys_bls04.public_key, keys_bls04.key_shares[0])
        entry = km.get("k1")
        assert entry.scheme == "bls04"
        assert entry.kind == "signature"
        assert "k1" in km and len(km) == 1

    def test_duplicate_rejected(self, keys_cks05):
        """Another key under a held id is refused; the same key again is a
        no-op that keeps the held share."""
        km = KeyManager()
        km.register("k1", "cks05", keys_cks05.public_key, keys_cks05.key_shares[0])
        km.register("k1", "cks05", keys_cks05.public_key, keys_cks05.key_shares[1])
        assert km.get("k1").key_share is keys_cks05.key_shares[0]
        other = generate_keys("cks05", 1, 4)
        with pytest.raises(KeyManagementError, match="different group key"):
            km.register("k1", "cks05", other.public_key, other.key_shares[0])
        with pytest.raises(KeyManagementError, match="different group key"):
            km.register("k1", "sg02", keys_cks05.public_key, keys_cks05.key_shares[0])

    def test_replace_keeps_the_group_key(self, keys_cks05):
        km = KeyManager()
        km.register("k1", "cks05", keys_cks05.public_key, keys_cks05.key_shares[0])
        km.replace("k1", keys_cks05.public_key, keys_cks05.key_shares[1])
        assert km.get("k1").key_share is keys_cks05.key_shares[1]
        other = generate_keys("cks05", 1, 4)
        with pytest.raises(KeyManagementError, match="different group key"):
            km.replace("k1", other.public_key, other.key_shares[1])
        assert km.get("k1").key_share is keys_cks05.key_shares[1]

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyManagementError):
            KeyManager().get("missing")

    def test_unknown_scheme_rejected(self, keys_bls04):
        with pytest.raises(KeyManagementError):
            KeyManager().register("k", "bogus", keys_bls04.public_key, None)

    def test_a_key_id_with_nul_is_refused(self, keys_cks05, tmp_path):
        """Registered or loaded from the keystore: an id holding U+0000
        could share instance ids with another key."""
        public, share = keys_cks05.public_key, keys_cks05.key_shares[0]
        with pytest.raises(KeyManagementError, match="U\\+0000"):
            KeyManager().register("k\0", "cks05", public, share)
        path = tmp_path / "keystore.bin"
        document = keystore_to_json({"k\0": ("cks05", share)})
        write_versioned(path, document.encode(), KEYSTORE_VERSION)
        with pytest.raises(KeyManagementError, match="U\\+0000"):
            KeyManager(path)

    def test_list_sorted_by_id(self, keys_bls04, keys_cks05):
        km = KeyManager()
        km.register("sig", "bls04", keys_bls04.public_key, keys_bls04.key_shares[0])
        km.register("coin", "cks05", keys_cks05.public_key, keys_cks05.key_shares[0])
        assert [e.key_id for e in km.list_keys()] == ["coin", "sig"]


class TestInstanceRecord:
    def test_lifecycle(self):
        record = InstanceRecord("i1", "bls04")
        assert record.status is InstanceStatus.CREATED
        record.mark_running()
        assert record.status is InstanceStatus.RUNNING
        record.mark_finished(b"result")
        assert record.status is InstanceStatus.FINISHED
        assert record.result == b"result"
        assert record.latency is not None and record.latency >= 0

    def test_double_termination_rejected(self):
        record = InstanceRecord("i1", "bls04")
        record.mark_finished(b"x")
        with pytest.raises(ProtocolError):
            record.mark_failed("nope")
        with pytest.raises(ProtocolError):
            record.mark_finished(b"y")

    def test_failed_has_error(self):
        record = InstanceRecord("i1", "bls04")
        record.mark_failed("boom")
        assert record.status is InstanceStatus.FAILED
        assert record.error == "boom"

    def test_latency_none_while_running(self):
        assert InstanceRecord("i1", "bls04").latency is None


def _protocols_for(keys, kind, data, instance_id="inst"):
    protocols = {}
    for share in keys.key_shares:
        operation = make_operation(
            keys.scheme, keys.public_key, share, OperationRequest(kind, data)
        )
        protocols[share.id] = NonInteractiveProtocol(instance_id, share.id, operation)
    return protocols


def _wire_managers(protocols, timeout=5.0):
    """Create one InstanceManager per party, all connected in memory."""
    managers = {}

    def make_send(sender_id):
        async def send(message: ProtocolMessage) -> None:
            for party_id, manager in managers.items():
                if party_id == sender_id:
                    continue
                if message.recipient and message.recipient != party_id:
                    continue
                await manager.handle_network_message(message)

        return send

    for party_id in protocols:
        managers[party_id] = InstanceManager(
            party_id, make_send(party_id), default_timeout=timeout
        )
    return managers


class TestInstanceManager:
    def test_full_run_across_managers(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"orchestrated")
            managers = _wire_managers(protocols)
            for party_id, protocol in protocols.items():
                managers[party_id].start_instance(protocol, "cks05")
            results = await asyncio.gather(
                *(m.result("inst") for m in managers.values())
            )
            assert len(set(results)) == 1

        asyncio.run(scenario())

    def test_idempotent_start(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"idem")
            managers = _wire_managers(protocols)
            manager = managers[1]
            record_a = manager.start_instance(protocols[1], "cks05")
            record_b = manager.start_instance(protocols[1], "cks05")
            assert record_a is record_b
            # The duplicate folded into the instance in flight, and was counted.
            assert manager.metrics.coalesced_requests.labels("inflight").value == 1
            await manager.shutdown()

        asyncio.run(scenario())

    def test_backlog_buffers_early_messages(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"early")
            managers = _wire_managers(protocols)
            # Parties 2..4 start first; their shares land in party 1's
            # backlog before party 1 creates the instance.
            for party_id in (2, 3, 4):
                managers[party_id].start_instance(protocols[party_id], "cks05")
            await asyncio.sleep(0.05)
            managers[1].start_instance(protocols[1], "cks05")
            result = await managers[1].result("inst")
            assert result
            record = managers[1].record("inst")
            assert record.status is InstanceStatus.FINISHED

        asyncio.run(scenario())

    def test_backlog_is_bounded_by_instance_ids(self, keys_cks05):
        """Messages for ids this node never creates cannot pin memory for
        the life of the process; a message that merely beat its request
        is still there when the request arrives."""
        from repro.core.orchestration.manager import _BACKLOG_IDS

        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"bounded")
            managers = _wire_managers(protocols)
            manager = managers[1]

            async def flood(count, tag):
                for index in range(count):
                    await manager.handle_network_message(
                        ProtocolMessage(f"{tag}-{index}", 2, 0, Channel.P2P, b"x")
                    )

            await flood(10 * _BACKLOG_IDS, "never")
            assert len(manager._backlog) == _BACKLOG_IDS
            assert manager.metrics.backlog_dropped.value == 9 * _BACKLOG_IDS
            # The usual race, with half a bound of strangers arriving between
            # the early shares and the request.
            for party_id in (2, 3, 4):
                managers[party_id].start_instance(protocols[party_id], "cks05")
            await asyncio.sleep(0.05)
            await flood(_BACKLOG_IDS // 2, "later")
            assert len(manager._backlog) == _BACKLOG_IDS
            manager.start_instance(protocols[1], "cks05")
            # Only the drained shares can complete it this fast: the peers
            # have finished and will not send again.
            assert await asyncio.wait_for(manager.result("inst"), 1.0)
            await manager.shutdown()

        asyncio.run(scenario())

    def test_timeout_marks_failed(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"timeout")
            manager = InstanceManager(
                1, lambda m: asyncio.sleep(0), default_timeout=0.1
            )

            async def send(message):
                return None

            manager._send = send
            manager.start_instance(protocols[1], "cks05")
            with pytest.raises(ProtocolAbortedError):
                await manager.result("inst")
            assert manager.record("inst").status is InstanceStatus.FAILED

        asyncio.run(scenario())

    def test_bad_share_is_dropped_and_protocol_still_finishes(self, keys_cks05):
        """Robustness: one byzantine share must not stall the quorum."""

        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"byzantine")
            managers = _wire_managers(protocols)
            # Party 1 receives a garbage share from "party 2" first.
            managers[1].start_instance(protocols[1], "cks05")
            garbage = ProtocolMessage("inst", 2, 0, Channel.P2P, b"\x00garbage")
            await managers[1].handle_network_message(garbage)
            for party_id in (2, 3, 4):
                managers[party_id].start_instance(protocols[party_id], "cks05")
            result = await managers[1].result("inst")
            assert result

        asyncio.run(scenario())

    def test_unknown_instance_result_rejected(self):
        async def scenario():
            async def send(message):
                return None

            manager = InstanceManager(1, send)
            with pytest.raises(ProtocolError):
                await manager.result("missing")
            with pytest.raises(ProtocolError):
                manager.record("missing")

        asyncio.run(scenario())

    def test_residual_messages_after_finish_are_dropped(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"residual")
            managers = _wire_managers(protocols)
            for party_id, protocol in protocols.items():
                managers[party_id].start_instance(protocol, "cks05")
            await managers[1].result("inst")
            # A late share for the finished instance must be ignored.
            late = ProtocolMessage("inst", 4, 0, Channel.P2P, b"\x00late")
            await managers[1].handle_network_message(late)
            assert managers[1].record("inst").status is InstanceStatus.FINISHED

        asyncio.run(scenario())

    def test_active_count(self, keys_cks05):
        async def scenario():
            protocols = _protocols_for(keys_cks05, "coin", b"count")
            managers = _wire_managers(protocols)
            assert managers[1].active_count == 0
            for party_id, protocol in protocols.items():
                managers[party_id].start_instance(protocol, "cks05")
            await managers[1].result("inst")
            assert managers[1].active_count == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# The executor's whole interface to a protocol: the TRI.
# ---------------------------------------------------------------------------

REMOVED_HOOKS = {
    "supports_offload", "offload_round", "apply_round", "offload_verify",
    "admit_verified", "supports_precompute", "stage_precomputed",
    "consume_precomputed",
}


class TestTriSurface:
    def test_the_tri_is_five_functions_and_bookkeeping(self):
        public = {name for name in vars(ThresholdRoundProtocol) if not name.startswith("_")}
        assert public == {
            "do_round", "update", "is_ready_for_next_round",
            "is_ready_to_finalize", "finalize",
            "progress", "advance_round", "mark_finalized", "finalized",
        }

    def test_no_protocol_class_defines_a_removed_hook(self):
        for info in pkgutil.iter_modules(protocols_package.__path__):
            module = importlib.import_module(f"{protocols_package.__name__}.{info.name}")
            for _, cls in inspect.getmembers(module, inspect.isclass):
                assert not REMOVED_HOOKS & set(vars(cls)), cls


# ---------------------------------------------------------------------------
# One scripted message schedule through the executor, per scheme: what is
# admitted, what is checked, and in which order.
# ---------------------------------------------------------------------------

EAGER, LAZY = ("sg02", "bz03", "cks05"), ("bls04", "sh00")
T, N = 3, 5  # quorum of 4: the local share plus three peers'


@pytest.fixture(scope="module")
def material(small_modulus):
    """(3, 5) keys per scheme plus two requests: the one served and another
    whose shares decode fine but fail verification against the first."""
    found = {}
    for scheme in EAGER + LAZY:
        extra = {"rsa_modulus": small_modulus} if scheme == "sh00" else {}
        keys = generate_keys(scheme, T, N, **extra)
        kind = {"sg02": "decrypt", "bz03": "decrypt", "cks05": "coin"}.get(scheme, "sign")
        data = [f"admission schedule {i}".encode() for i in range(2)]
        if kind == "decrypt":
            data = [
                get_scheme(scheme).encrypt(keys.public_key, d, b"").to_bytes()
                for d in data
            ]
        found[scheme] = (keys, [OperationRequest(kind, d) for d in data])
    return found


def _operation(material, scheme, party, request=0):
    keys, requests = material[scheme]
    return make_operation(
        scheme, keys.public_key, keys.share_for(party), requests[request]
    )


def _share(material, scheme, party, request=0) -> bytes:
    return _operation(material, scheme, party, request).create_own_share()


async def _run_node(material, scheme, schedule):
    """Node 1's executor fed ``schedule``, all of it queued before the
    first round runs (what a slow node sees when its peers are fast)."""

    async def send(message):
        return None

    manager = InstanceManager(1, send, default_timeout=5.0, registry=MetricRegistry())
    operation = _operation(material, scheme, 1)
    protocol = NonInteractiveProtocol("inst", 1, operation)
    updates, checked = [], []
    update, verify = protocol.update, operation._verify_decoded
    protocol.update = lambda message: (updates.append(message.sender), update(message))[1]
    operation._verify_decoded = lambda share: (checked.append(share.id), verify(share))[1]
    record = manager.start_instance(protocol, scheme)
    for sender, payload in schedule:
        await manager.handle_network_message(
            ProtocolMessage("inst", sender, 0, Channel.P2P, payload)
        )
    result = await manager.result("inst")
    await manager.shutdown()
    hops = [
        (e.attributes["sender"], e.attributes["outcome"])
        for e in record.trace.events
        if e.name == "hop"
    ]
    counts = {
        outcome: manager.metrics.messages.labels(scheme, outcome).value
        for outcome in ("accepted", "rejected", "duplicate")
    }
    return result, hops, counts, updates, checked


@pytest.mark.parametrize("scheme", EAGER + LAZY)
class TestAdmissionSchedule:
    def test_counters_trace_and_result(self, material, scheme):
        """Malformed, forged, honest, its identical duplicate, a conflicting
        duplicate, and the two honest shares that complete the quorum."""
        honest = {party: _share(material, scheme, party) for party in (3, 4, 5)}
        schedule = [
            (2, b"junk"),
            (2, _share(material, scheme, 2, request=1)),
            (3, honest[3]),
            (3, honest[3]),
            (3, _share(material, scheme, 3, request=1)),
            (4, honest[4]),
            (5, honest[5]),
        ]
        result, hops, counts, updates, checked = asyncio.run(
            _run_node(material, scheme, schedule)
        )
        reference = _operation(material, scheme, 1)
        reference.create_own_share()
        for payload in honest.values():
            reference.accept_share(payload)
        assert result == reference.result()
        # Every message went through protocol.update, in arrival order.
        assert updates == [sender for sender, _ in schedule]
        assert counts["duplicate"] == 1
        if scheme in EAGER:
            assert hops == [
                (2, "rejected"), (2, "rejected"), (3, "accepted"),
                (3, "duplicate"), (3, "rejected"), (4, "accepted"), (5, "accepted"),
            ]
        else:
            # Lazy until the conflict over id 3 forces a check, which also
            # finds the forgery held for id 2; eager (checked) after.
            assert hops == [
                (2, "rejected"), (2, "accepted"), (3, "accepted"),
                (3, "duplicate"), (2, "rejected"), (3, "rejected"),
                (4, "accepted"), (5, "accepted"),
            ]
            assert checked == [2, 3, 3, 4, 5]


class TestVerificationBudget:
    def test_shares_past_the_quorum_are_never_verified(self, material):
        schedule = [(p, _share(material, "cks05", p)) for p in (2, 3, 4, 5)]
        _, _, _, updates, checked = asyncio.run(_run_node(material, "cks05", schedule))
        # Deficit 3: parties 2-4 complete the quorum; party 5's share is
        # surplus and never reaches update(), let alone a check.
        assert updates == checked == [2, 3, 4]

    def test_a_rejected_share_reopens_the_deficit_by_one(self, material):
        schedule = [(2, _share(material, "cks05", 2, request=1))] + [
            (p, _share(material, "cks05", p)) for p in (3, 4, 5)
        ]
        _, hops, _, _, checked = asyncio.run(_run_node(material, "cks05", schedule))
        assert checked == [2, 3, 4, 5]
        assert hops == [(2, "rejected"), (3, "accepted"), (4, "accepted"), (5, "accepted")]

    def test_a_transport_duplicate_is_checked_before_it_is_named(self, material):
        share = _share(material, "cks05", 2)
        schedule = [(2, share), (2, share)] + [
            (p, _share(material, "cks05", p)) for p in (3, 4)
        ]
        _, hops, _, _, checked = asyncio.run(_run_node(material, "cks05", schedule))
        assert checked == [2, 2, 3, 4]
        assert hops[:2] == [(2, "accepted"), (2, "duplicate")]

    def test_lazy_operations_check_no_share_on_an_honest_schedule(self, material):
        schedule = [(p, _share(material, "bls04", p)) for p in (2, 3, 4)]
        _, hops, _, _, checked = asyncio.run(_run_node(material, "bls04", schedule))
        assert checked == []
        assert hops == [(2, "accepted"), (3, "accepted"), (4, "accepted")]
