"""TRI protocols driven by a synchronous message pump (no network)."""

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.core.protocols import (
    DealProtocol,
    FrostPrecomputationPool,
    FrostPrecomputeProtocol,
    FrostProtocol,
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.errors import (
    ConfigurationError,
    InvalidShareError,
    ProtocolAbortedError,
    ProtocolError,
)
from repro.groups import get_group
from repro.schemes import get_scheme


def pump(protocols):
    """Run a set of per-party protocols to completion, routing messages."""
    inboxes = {p.party_id: [] for p in protocols}
    for protocol in protocols:
        for message in protocol.do_round():
            _route(message, inboxes, protocol.party_id)
    results = {}
    progress = True
    while progress and len(results) < len(protocols):
        progress = False
        for protocol in protocols:
            if protocol.instance_id in () or protocol.party_id in results:
                continue
            queue, inboxes[protocol.party_id] = inboxes[protocol.party_id], []
            for message in queue:
                protocol.update(message)
                progress = True
            if protocol.is_ready_for_next_round():
                protocol.advance_round()
                for message in protocol.do_round():
                    _route(message, inboxes, protocol.party_id)
                progress = True
            if protocol.is_ready_to_finalize() and protocol.party_id not in results:
                results[protocol.party_id] = protocol.finalize()
                progress = True
    return results


def _route(message, inboxes, sender):
    for party_id, inbox in inboxes.items():
        if party_id == sender:
            continue
        if message.recipient and message.recipient != party_id:
            continue
        inbox.append(message)


def make_noninteractive(keys, kind, data, label=b""):
    protocols = []
    for share in keys.key_shares:
        operation = make_operation(
            keys.scheme,
            keys.public_key,
            share,
            OperationRequest(kind, data, label),
        )
        protocols.append(
            NonInteractiveProtocol("inst-1", share.id, operation)
        )
    return protocols


class TestNonInteractiveProtocol:
    def test_bls_signing_all_parties_finalize(self, keys_bls04):
        protocols = make_noninteractive(keys_bls04, "sign", b"pump msg")
        results = pump(protocols)
        assert len(results) == 4
        scheme = get_scheme("bls04")
        from repro.schemes.bls04 import Bls04Signature

        for blob in results.values():
            scheme.verify(
                keys_bls04.public_key, b"pump msg", Bls04Signature.from_bytes(blob)
            )

    def test_coin_all_parties_agree(self, keys_cks05):
        protocols = make_noninteractive(keys_cks05, "coin", b"coin-name")
        results = pump(protocols)
        assert len(set(results.values())) == 1

    def test_sg02_decrypt_via_protocol(self, keys_sg02):
        cipher = get_scheme("sg02")
        ct = cipher.encrypt(keys_sg02.public_key, b"plain", b"lbl")
        protocols = make_noninteractive(keys_sg02, "decrypt", ct.to_bytes(), b"lbl")
        results = pump(protocols)
        assert set(results.values()) == {b"plain"}

    def test_single_round_protocol_rejects_second_round(self, keys_bls04):
        protocols = make_noninteractive(keys_bls04, "sign", b"x")
        protocols[0].do_round()
        with pytest.raises(ProtocolError):
            protocols[0].do_round()
        assert not protocols[0].is_ready_for_next_round()

    def test_premature_finalize_rejected(self, keys_bls04):
        protocols = make_noninteractive(keys_bls04, "sign", b"x")
        protocols[0].do_round()
        with pytest.raises(ProtocolError):
            protocols[0].finalize()

    def test_own_echo_is_ignored(self, keys_bls04):
        protocols = make_noninteractive(keys_bls04, "sign", b"x")
        messages = protocols[0].do_round()
        protocols[0].update(messages[0])  # own broadcast echoed back
        assert not protocols[0].is_ready_to_finalize()

    def test_double_finalize_rejected(self, keys_cks05):
        protocols = make_noninteractive(keys_cks05, "coin", b"n")
        results_inboxes = {}
        msgs = []
        for p in protocols:
            msgs.extend(p.do_round())
        target = protocols[0]
        for m in msgs:
            if m.sender != target.party_id:
                target.update(m)
        assert target.is_ready_to_finalize()
        target.finalize()
        with pytest.raises(ProtocolError):
            target.finalize()

    def test_wrong_kind_rejected(self, keys_bls04):
        with pytest.raises(ConfigurationError):
            make_operation(
                "bls04",
                keys_bls04.public_key,
                keys_bls04.key_shares[0],
                OperationRequest("decrypt", b"x"),
            )

    def test_coin_kind_on_cipher_rejected(self, keys_sg02):
        with pytest.raises(ConfigurationError):
            make_operation(
                "sg02",
                keys_sg02.public_key,
                keys_sg02.key_shares[0],
                OperationRequest("coin", b"x"),
            )


class TestFrostProtocol:
    def test_two_round_signing(self, keys_kg20):
        protocols = [
            FrostProtocol("frost-1", share, b"frost pump")
            for share in keys_kg20.key_shares
        ]
        results = pump(protocols)
        assert len(results) == 4
        from repro.schemes.kg20 import Kg20Signature, Kg20SignatureScheme

        scheme = Kg20SignatureScheme()
        for blob in results.values():
            scheme.verify(
                keys_kg20.public_key,
                b"frost pump",
                Kg20Signature.from_bytes(blob, keys_kg20.public_key.group),
            )

    def test_precompute_then_single_round(self, keys_kg20):
        pools = {s.id: FrostPrecomputationPool() for s in keys_kg20.key_shares}
        pre = [
            FrostPrecomputeProtocol("pre-1", share, 3, pools[share.id])
            for share in keys_kg20.key_shares
        ]
        pump(pre)
        assert all(pool.available == 3 for pool in pools.values())
        for index in range(2):
            protocols = [
                FrostProtocol(
                    f"frost-pre-{index}",
                    share,
                    b"msg %d" % index,
                    pool=pools[share.id],
                )
                for share in keys_kg20.key_shares
            ]
            # Precomputed mode starts in round 1 directly.
            assert all(p.round == 1 for p in protocols)
            results = pump(protocols)
            assert len(results) == 4

    def test_pool_exhaustion(self):
        pool = FrostPrecomputationPool()
        with pytest.raises(ProtocolError):
            pool.pop()

    def test_rogue_share_aborts_with_culprit(self, keys_kg20):
        protocols = [
            FrostProtocol("frost-abort", share, b"abort me")
            for share in keys_kg20.key_shares
        ]
        inboxes = {p.party_id: [] for p in protocols}
        for p in protocols:
            for m in p.do_round():
                _route(m, inboxes, p.party_id)
        # Deliver all commitments, advance everyone to round 1.
        for p in protocols:
            for m in inboxes[p.party_id]:
                p.update(m)
            inboxes[p.party_id] = []
            assert p.is_ready_for_next_round()
            p.advance_round()
        round1 = {p.party_id: p.do_round() for p in protocols}
        # Tamper with party 2's z-share before delivery to party 1.
        from repro.schemes.kg20 import Kg20SignatureShare

        target = protocols[0]
        for sender, messages in round1.items():
            for m in messages:
                if sender == 2:
                    bad_share = Kg20SignatureShare(2, 12345)
                    m = ProtocolMessage(
                        m.instance_id, 2, 1, m.channel, bad_share.to_bytes()
                    )
                if sender != target.party_id:
                    target.update(m)
        assert target.is_ready_to_finalize()
        with pytest.raises(Exception) as excinfo:
            target.finalize()
        assert "2" in str(excinfo.value)

    def test_mismatched_sender_commitment_aborts(self, keys_kg20):
        protocol = FrostProtocol("frost-bad", keys_kg20.key_shares[0], b"m")
        protocol.do_round()
        from repro.schemes.kg20 import Kg20SignatureScheme

        scheme = Kg20SignatureScheme()
        _, commitment = scheme.commit(keys_kg20.key_shares[2])
        message = ProtocolMessage(
            "frost-bad", 2, 0, Channel.P2P, commitment.to_bytes()
        )
        with pytest.raises(ProtocolAbortedError):
            protocol.update(message)


def _dkg(instance_id, party_id, group, threshold=1, parties=4):
    """A DKG at one party: dealers 1..n, a random secret, t+1 to qualify."""
    return DealProtocol(
        instance_id, party_id, threshold, parties, group,
        range(1, parties + 1), group.random_scalar(), need=threshold + 1,
    )


class TestDkgProtocol:
    def test_full_dkg_run(self):
        group = get_group("ed25519")
        protocols = [_dkg("dkg-1", i, group) for i in range(1, 5)]
        results = pump(protocols)
        assert len(set(results.values())) == 1  # same group key everywhere
        shares = {p.party_id: p.result for p in protocols}
        ids = [1, 2]
        from repro.mathutils.lagrange import lagrange_coefficients_at_zero

        lam = lagrange_coefficients_at_zero(ids, group.order)
        x = sum(shares[i].share_value * lam[i] for i in ids) % group.order
        assert group.generator() ** x == shares[1].group_key

    def test_directed_messages_have_recipients(self):
        group = get_group("ed25519")
        protocol = _dkg("dkg-2", 1, group)
        messages = protocol.do_round()
        assert sorted(m.recipient for m in messages) == [2, 3, 4]

    def test_misaddressed_share_rejected(self):
        group = get_group("ed25519")
        p1 = _dkg("dkg-3", 1, group)
        p2 = _dkg("dkg-3", 2, group)
        p1.do_round()
        messages = p2.do_round()
        to_party_3 = next(m for m in messages if m.recipient == 3)
        with pytest.raises(InvalidShareError, match="addressed to party 3"):
            p1.update(to_party_3)

    def test_result_before_finalize_rejected(self):
        group = get_group("ed25519")
        protocol = _dkg("dkg-4", 1, group)
        with pytest.raises(ProtocolError):
            protocol.result
