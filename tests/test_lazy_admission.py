"""Lazy share admission for self-verifying operations (BLS04, SH00 signing).

A sign operation stores peer shares unverified, combines the moment the
quorum forms and lets the scheme's final ``verify`` judge the result; only
when that fails are shares checked one by one.  These tests pin down what
the eager per-share check used to give for free and the lazy path must now
provide explicitly (``ProtocolMessage.sender`` is not authenticated):

* a forged, malformed, id-spoofed or conflicting share from ≤ t byzantine
  peers never prevents finalization and never changes the result bytes
  (frozen from the parent commit's eager path on deterministic keys);
* the rejection names the culprit, not the message that completed the
  quorum — in the error, the trace hop and the ``rejected`` counter;
* a byzantine peer buys at most one pairing check more than the parent
  paid for the same message schedule; an honest run pays exactly one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import InstanceManager, InstanceStatus
from repro.core.protocols import (
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.errors import (
    CryptoError,
    DuplicateShareError,
    InvalidShareError,
    ProtocolAbortedError,
    SerializationError,
)
from repro.groups.bn254 import bn254_pairing
from repro.groups.precompute import fixed_pow
from repro.mathutils.modular import inverse_mod
from repro.rsa.keygen import FIXTURE_MODULI
from repro.schemes import bls04, get_scheme, sh00
from repro.schemes.keygen import KeyMaterial
from repro.telemetry import MetricRegistry

SCHEMES = ("bls04", "sh00")
SHAPES = ((1, 4), (2, 7))
MESSAGES = (b"lazy admission vector 0", b"lazy admission vector 1")

#: Signatures the parent commit's eager path (verify every share, combine,
#: verify the result) produced for ``MESSAGES`` under ``deterministic_keys``.
#: Both schemes' signatures are unique per (key, message), so any admission
#: order must reproduce exactly these bytes.
PARENT_RESULTS = {
    ("bls04", 1, 4): (
        "000000400ade1da9e3e062f2ead66965bcc0a5e4a601d7c3cb061ea7c264898278dab2de"
        "2115a8c550e5e21ec5198be6ae9b4f2c155c31fb3f1f75f16a634e947845293d",
        "0000004016498a43b20bfc1430d2021bdf4b75a87b7dc844570850a42d9e147eb765fbb8"
        "21099c5472bba14a69c5a987ddce2a0b78bcf5bb0dbcf0240444ef439a17b57d",
    ),
    ("bls04", 2, 7): (
        "000000402301d9faadfa05a7e113986037ad4349ddd937169fa608ffdc21d3879b8b4eb6"
        "196bcf1a3915bba7e275acab7b2e74bfb2ef18a361e2b4c738d23583479ae551",
        "000000400e3593a5b7b98500680d18872b97aad8edfe4246430ef2ca6bdd7e4b2f2285fa"
        "17b4afd76ea1650da44c094b34b0aee88520e41de205b58468994754159cbfe1",
    ),
    # One modulus and exponent for both shapes: an RSA signature does not
    # depend on how the exponent was shared.
    ("sh00", 1, 4): (
        "00000040290d78a815ca62a66bee55472e38d64aad7d7dcb6285134eee2a8e384546851d"
        "9971b8dba143c8a304eee37adabb64d7f4c4ae44bc5374627f126cbe2db28a57",
        "000000403219c55767a5b2d5cf41e1e6f411602c7aac4453b6aae64266eb18f71b25b3c5"
        "79983bce76cf705609a9dbf7d7100d4fb30fb70b4c17c692c05474428eaeeb01",
    ),
    ("sh00", 2, 7): (
        "00000040290d78a815ca62a66bee55472e38d64aad7d7dcb6285134eee2a8e384546851d"
        "9971b8dba143c8a304eee37adabb64d7f4c4ae44bc5374627f126cbe2db28a57",
        "000000403219c55767a5b2d5cf41e1e6f411602c7aac4453b6aae64266eb18f71b25b3c5"
        "79983bce76cf705609a9dbf7d7100d4fb30fb70b4c17c692c05474428eaeeb01",
    ),
}


# ---------------------------------------------------------------------------
# Deterministic key material (so result bytes can be frozen across commits).
# ---------------------------------------------------------------------------


def _polynomial_shares(rng, secret: int, threshold: int, parties: int, modulus: int):
    """Shamir evaluation with seeded coefficients (the library's dealers
    draw theirs from ``secrets``, which cannot be frozen)."""
    coefficients = [secret % modulus] + [
        rng.randrange(modulus) for _ in range(threshold)
    ]
    return [
        sum(c * pow(i, k, modulus) for k, c in enumerate(coefficients)) % modulus
        for i in range(1, parties + 1)
    ]


@functools.lru_cache(maxsize=None)
def deterministic_keys(scheme: str, threshold: int, parties: int) -> KeyMaterial:
    rng = random.Random(f"lazy-admission/{scheme}/{threshold}/{parties}")
    if scheme == "bls04":
        pairing = bn254_pairing()
        x = rng.randrange(1, pairing.order)
        values = _polynomial_shares(rng, x, threshold, parties, pairing.order)
        g2 = pairing.g2.generator()
        public = bls04.Bls04PublicKey(
            threshold,
            parties,
            fixed_pow(g2, x),
            tuple(fixed_pow(g2, v) for v in values),
        )
        shares = tuple(
            bls04.Bls04KeyShare(i, v, public) for i, v in enumerate(values, 1)
        )
        return KeyMaterial("bls04", public, shares)
    modulus = FIXTURE_MODULI[512]
    d = inverse_mod(sh00.PUBLIC_EXPONENT, modulus.m)
    values = _polynomial_shares(rng, d, threshold, parties, modulus.m)
    v = pow(rng.randrange(2, modulus.n), 2, modulus.n)
    public = sh00.Sh00PublicKey(
        threshold,
        parties,
        modulus.n,
        sh00.PUBLIC_EXPONENT,
        v,
        tuple(pow(v, s, modulus.n) for s in values),
    )
    shares = tuple(sh00.Sh00KeyShare(i, s, public) for i, s in enumerate(values, 1))
    return KeyMaterial("sh00", public, shares)


def _operation(scheme, threshold, parties, party, message):
    keys = deterministic_keys(scheme, threshold, parties)
    return make_operation(
        scheme, keys.public_key, keys.share_for(party), OperationRequest("sign", message)
    )


@functools.lru_cache(maxsize=None)
def honest_payload(scheme, threshold, parties, party, message) -> bytes:
    """Party's signature share, created once (SH00 proofs are randomized)."""
    return _operation(scheme, threshold, parties, party, message).create_own_share()


@functools.lru_cache(maxsize=None)
def forged_payload(scheme, threshold, parties, party, message) -> bytes:
    """Well-formed, decodable, wrong: the party's share of another message."""
    return honest_payload(scheme, threshold, parties, party, b"forged:" + message)


def _share_type(scheme):
    return bls04.Bls04SignatureShare if scheme == "bls04" else sh00.Sh00SignatureShare


def respoof(scheme, payload: bytes, claimed_id: int) -> bytes:
    """The same share bytes under another party's id."""
    share = _share_type(scheme).from_bytes(payload)
    return dataclasses.replace(share, id=claimed_id).to_bytes()


def record_parent_results() -> dict:
    """What ``PARENT_RESULTS`` holds; run against a checkout of the parent
    commit (``PYTHONPATH=<parent>/src python tests/test_lazy_admission.py``).
    Uses only calls that exist on both sides of this change."""
    recorded = {}
    for scheme in SCHEMES:
        for threshold, parties in SHAPES:
            row = []
            for message in MESSAGES:
                operation = _operation(scheme, threshold, parties, 1, message)
                operation.create_own_share()
                for peer in range(2, threshold + 2):
                    operation.accept_share(
                        honest_payload(scheme, threshold, parties, peer, message)
                    )
                row.append(operation.combine().hex())
            recorded[(scheme, threshold, parties)] = tuple(row)
    return recorded


# ---------------------------------------------------------------------------
# One party, driven the way the executor drives it.
# ---------------------------------------------------------------------------


class Party:
    """One node's protocol instance plus the executor's classification."""

    def __init__(self, scheme, threshold, parties, party, message):
        self.scheme, self.shape, self.message = scheme, (threshold, parties), message
        self.operation = _operation(scheme, threshold, parties, party, message)
        self.protocol = NonInteractiveProtocol("inst", party, self.operation)
        self.protocol.do_round()
        self.rejected: list[int] = []
        self.duplicates = 0

    def deliver(self, sender: int, payload: bytes):
        """Returns the exception the admission raised, or None."""
        message = ProtocolMessage("inst", sender, 0, Channel.P2P, payload)
        try:
            self.protocol.update(message)
        except DuplicateShareError as exc:
            self.duplicates += 1
            return exc
        except (CryptoError, SerializationError) as exc:
            self.rejected.extend(getattr(exc, "culprits", ()) or (sender,))
            return exc
        return None

    def run(self, schedule) -> bytes | None:
        """Deliver until ready, like the executor; None = no quorum."""
        for sender, payload in schedule:
            if self.protocol.is_ready_to_finalize():
                break
            self.deliver(sender, payload)
        if not self.protocol.is_ready_to_finalize():
            return None
        return self.protocol.finalize()

    def honest(self, sender: int) -> tuple[int, bytes]:
        return sender, honest_payload(self.scheme, *self.shape, sender, self.message)

    def forged(self, sender: int) -> tuple[int, bytes]:
        return sender, forged_payload(self.scheme, *self.shape, sender, self.message)

    @property
    def expected(self) -> bytes:
        index = MESSAGES.index(self.message)
        return bytes.fromhex(PARENT_RESULTS[(self.scheme, *self.shape)][index])


def eager_reference(scheme, threshold, parties, message, schedule):
    """The parent's admission, spelled out on the scheme API: decode,
    verify, then police duplicates — one share at a time until the quorum
    forms — and a combine that verifies its output."""
    keys = deterministic_keys(scheme, threshold, parties)
    impl = get_scheme(scheme)
    own = _share_type(scheme).from_bytes(
        honest_payload(scheme, threshold, parties, 1, message)
    )
    held = {1: own}
    for _, payload in schedule:
        if len(held) > threshold:
            break
        try:
            share = _share_type(scheme).from_bytes(payload)
            impl.verify_signature_share(keys.public_key, message, share)
        except Exception:  # noqa: BLE001 - rejected, whatever the flavour
            continue
        held.setdefault(share.id, share)
    if len(held) <= threshold:
        return None
    return impl.combine(keys.public_key, message, list(held.values())).to_bytes()


@pytest.fixture
def pairing_checks(monkeypatch):
    """Counts ``pairing_check`` calls (the thetabench wrap target)."""
    module = sys.modules["repro.groups.bn254.pairing"]
    original = module.pairing_check
    calls = []

    def counted(pairs):
        calls.append(len(pairs))
        return original(pairs)

    monkeypatch.setattr(module, "pairing_check", counted)
    return calls


CASES = [
    pytest.param(scheme, t, n, id=f"{scheme}-t{t}n{n}")
    for scheme in SCHEMES
    for t, n in SHAPES
]


# ---------------------------------------------------------------------------
# Admission rules.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme,t,n", CASES)
class TestAdmissionRules:
    def test_parent_vectors_match_honest_run(self, scheme, t, n):
        for message in MESSAGES:
            party = Party(scheme, t, n, 1, message)
            result = party.run([party.honest(i) for i in range(2, n + 1)])
            assert result == party.expected
            assert party.rejected == [] and party.duplicates == 0

    def test_honest_shares_are_held_unverified_until_quorum(self, scheme, t, n):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        assert party.operation.admits_unverified
        for i in range(2, t + 1):
            assert party.deliver(*party.honest(i)) is None
        assert not party.protocol.is_ready_to_finalize()
        assert party.deliver(*party.honest(t + 1)) is None
        assert party.protocol.is_ready_to_finalize()
        assert party.operation.admits_unverified  # nothing ever failed
        assert party.protocol.finalize() == party.expected

    def test_forged_share_first(self, scheme, t, n):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        schedule = [party.forged(2)] + [party.honest(i) for i in range(3, n + 1)]
        assert party.run(schedule) == party.expected
        assert party.rejected == [2]
        assert not party.operation.admits_unverified  # eager from then on

    def test_forged_share_last_in_the_quorum(self, scheme, t, n):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        quorum = [party.honest(i) for i in range(2, t + 1)] + [party.forged(t + 1)]
        rest = [party.honest(i) for i in range(t + 2, n + 1)]
        assert party.run(quorum + rest) == party.expected
        assert party.rejected == [t + 1]

    def test_rejection_names_the_culprit_not_the_completing_message(
        self, scheme, t, n
    ):
        """The forged share is the *earlier* stored one; an honest share
        completes the quorum and triggers the failed check."""
        if t == 1:
            pytest.skip("at t=1 the first peer share already forms the quorum")
        party = Party(scheme, t, n, 1, MESSAGES[0])
        assert party.deliver(*party.forged(2)) is None  # stored, unjudged
        for i in range(3, t + 1):
            assert party.deliver(*party.honest(i)) is None
        error = party.deliver(*party.honest(t + 1))
        assert isinstance(error, InvalidShareError)
        assert error.culprits == (2,) and "[2]" in str(error)
        assert party.rejected == [2]
        # The completing share survived as verified; one more finishes.
        assert party.operation.share_count == t
        assert party.run([party.honest(t + 2)]) == party.expected

    def test_eviction_frees_the_id_for_its_honest_owner(self, scheme, t, n):
        """Id-spoofed garbage first; the owner's real share arrives after
        the failed check and must be admitted, not called a duplicate."""
        party = Party(scheme, t, n, 1, MESSAGES[0])
        spoofed = respoof(scheme, party.forged(3)[1], claimed_id=2)
        schedule = [(3, spoofed)] + [party.honest(i) for i in range(3, t + 2)]
        schedule.append(party.honest(2))
        assert party.run(schedule) == party.expected
        assert party.rejected == [2]
        assert party.duplicates == 0

    def test_spoofed_share_never_shadows_the_honest_one(self, scheme, t, n):
        """Garbage under id 2 is held unverified when the real share for
        id 2 arrives: a conflict, settled on the spot, not a duplicate."""
        if t == 1:
            pytest.skip("at t=1 the first peer share already forms the quorum")
        party = Party(scheme, t, n, 1, MESSAGES[0])
        spoofed = respoof(scheme, party.forged(3)[1], claimed_id=2)
        assert party.deliver(3, spoofed) is None
        error = party.deliver(*party.honest(2))
        assert isinstance(error, InvalidShareError) and error.culprits == (2,)
        assert not party.operation.admits_unverified
        assert party.run([party.honest(3)]) == party.expected
        assert party.duplicates == 0

    def test_conflict_with_an_honest_held_share(self, scheme, t, n):
        """The honest share is held; a different payload for its id is
        verified and rejected, the held one survives."""
        if t == 1:
            pytest.skip("at t=1 the first peer share already forms the quorum")
        party = Party(scheme, t, n, 1, MESSAGES[0])
        assert party.deliver(*party.honest(2)) is None
        error = party.deliver(*party.forged(2))
        assert isinstance(error, InvalidShareError) and error.culprits == (2,)
        assert party.run([party.honest(3)]) == party.expected

    def test_identical_resend_is_a_duplicate(self, scheme, t, n):
        if t == 1:
            pytest.skip("at t=1 the first peer share already forms the quorum")
        party = Party(scheme, t, n, 1, MESSAGES[0])
        assert party.deliver(*party.honest(2)) is None
        assert isinstance(party.deliver(*party.honest(2)), DuplicateShareError)
        assert party.duplicates == 1 and party.rejected == []
        assert party.operation.admits_unverified  # a re-send proves nothing
        assert party.run([party.honest(3)]) == party.expected

    def test_own_id_from_a_peer(self, scheme, t, n):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        own = honest_payload(scheme, t, n, 1, MESSAGES[0])
        assert isinstance(party.deliver(2, own), DuplicateShareError)
        error = party.deliver(2, respoof(scheme, party.forged(2)[1], claimed_id=1))
        assert isinstance(error, InvalidShareError)
        assert party.run([party.honest(i) for i in range(2, n + 1)]) == party.expected

    def test_out_of_range_ids_rejected_at_decode(self, scheme, t, n):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        for claimed in (0, n + 1, 1000):
            payload = respoof(scheme, party.honest(2)[1], claimed_id=claimed)
            error = party.deliver(2, payload)
            assert isinstance(error, InvalidShareError) and not error.culprits
            assert "out of range" in str(error)
        assert party.operation.share_count == 1
        assert party.operation.admits_unverified  # cost nothing, proved nothing

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: b"",
            lambda p: b"\x00junk",
            lambda p: p[:-1],
            lambda p: p + b"\x00",
            lambda p: p[:4] + b"\xff" * 4 + p[8:],
        ],
        ids=["empty", "junk", "truncated", "trailing", "length-bomb"],
    )
    def test_malformed_bytes_rejected_at_decode(self, scheme, t, n, mangle):
        party = Party(scheme, t, n, 1, MESSAGES[0])
        error = party.deliver(2, mangle(party.honest(2)[1]))
        assert isinstance(error, (InvalidShareError, SerializationError))
        assert party.rejected == [2]
        assert party.operation.share_count == 1
        assert party.run([party.honest(i) for i in range(2, n + 1)]) == party.expected

    def test_own_share_completing_the_quorum_judges_early_shares(
        self, scheme, t, n
    ):
        """Peers' shares may be admitted before the own share exists (the
        adapter allows any order): the round must not fail on a forgery."""
        operation = _operation(scheme, t, n, 1, MESSAGES[0])
        protocol = NonInteractiveProtocol("inst", 1, operation)
        forged = forged_payload(scheme, t, n, 2, MESSAGES[0])
        operation.accept_share(forged)
        for i in range(3, t + 2):
            operation.accept_share(honest_payload(scheme, t, n, i, MESSAGES[0]))
        protocol.do_round()  # completes the quorum; evicts party 2 quietly
        assert not protocol.is_ready_to_finalize()
        assert not operation.admits_unverified
        protocol.update(
            ProtocolMessage(
                "inst", 2, 0, Channel.P2P, honest_payload(scheme, t, n, 2, MESSAGES[0])
            )
        )
        index = (scheme, t, n)
        assert protocol.finalize() == bytes.fromhex(PARENT_RESULTS[index][0])

    def test_no_signature_is_returned_that_verify_rejected(self, scheme, t, n):
        """Without settle() (an adapter user that skips it), result() still
        ends in the scheme's verify: forged input raises, never returns."""
        operation = _operation(scheme, t, n, 1, MESSAGES[0])
        operation.create_own_share()
        operation.accept_share(forged_payload(scheme, t, n, 2, MESSAGES[0]))
        for i in range(3, t + 2):
            operation.accept_share(honest_payload(scheme, t, n, i, MESSAGES[0]))
        with pytest.raises(Exception):
            operation.result()


class TestEagerSchemesUnchanged:
    def test_coin_and_decrypt_verify_on_arrival(self, keys_cks05, keys_sg02):
        coin = make_operation(
            "cks05",
            keys_cks05.public_key,
            keys_cks05.share_for(1),
            OperationRequest("coin", b"eager"),
        )
        assert not coin.admits_unverified
        other = make_operation(
            "cks05",
            keys_cks05.public_key,
            keys_cks05.share_for(2),
            OperationRequest("coin", b"another coin"),
        )
        with pytest.raises(InvalidShareError):
            coin.accept_share(other.create_own_share())
        assert coin.share_count == 0
        coin.settle()  # a no-op for an eager adapter


# ---------------------------------------------------------------------------
# Through the executor: counters, trace hops, abort taxonomy.
# ---------------------------------------------------------------------------


async def _run_node(scheme, t, n, schedule, timeout=5.0):
    """Node 1's InstanceManager fed a scripted schedule of peer messages."""

    async def send(message):
        return None

    manager = InstanceManager(
        1, send, default_timeout=timeout, registry=MetricRegistry()
    )
    operation = _operation(scheme, t, n, 1, MESSAGES[0])
    protocol = NonInteractiveProtocol("inst", 1, operation)
    record = manager.start_instance(protocol, scheme)
    for sender, payload in schedule:
        await manager.handle_network_message(
            ProtocolMessage("inst", sender, 0, Channel.P2P, payload)
        )
    try:
        result = await manager.result("inst")
    except ProtocolAbortedError as exc:
        result = exc
    await manager.shutdown()
    hops = [
        (e.attributes["sender"], e.attributes["outcome"])
        for e in record.trace.events
        if e.name == "hop"
    ]
    counter = manager.metrics.messages
    counts = {
        outcome: counter.labels(scheme, outcome).value
        for outcome in ("accepted", "rejected", "duplicate")
    }
    return result, record, hops, counts


@pytest.mark.parametrize("scheme", SCHEMES)
class TestExecutorAttribution:
    def test_culprit_is_counted_logged_and_traced(self, scheme, caplog):
        t, n = 2, 7
        forged = forged_payload(scheme, t, n, 2, MESSAGES[0])
        schedule = [(2, forged)] + [
            (i, honest_payload(scheme, t, n, i, MESSAGES[0])) for i in (3, 4)
        ]
        with caplog.at_level("WARNING"):
            result, record, hops, counts = asyncio.run(
                _run_node(scheme, t, n, schedule)
            )
        assert result == bytes.fromhex(PARENT_RESULTS[(scheme, t, n)][0])
        assert record.status is InstanceStatus.FINISHED
        # Party 2 stored first (accepted, unjudged); party 3's share formed
        # the quorum, the check failed, and the rejection went to party 2.
        assert hops == [(2, "accepted"), (2, "rejected"), (3, "accepted"), (4, "accepted")]
        assert counts == {"accepted": 3, "rejected": 1, "duplicate": 0}
        assert any(
            "rejected message from party 2" in r.getMessage() for r in caplog.records
        )

    def test_all_peers_byzantine_aborts_byzantine_detected(self, scheme):
        t, n = 1, 4
        schedule = [
            (i, forged_payload(scheme, t, n, i, MESSAGES[0])) for i in (2, 3, 4)
        ]
        result, record, hops, counts = asyncio.run(
            _run_node(scheme, t, n, schedule, timeout=0.6)
        )
        assert isinstance(result, ProtocolAbortedError)
        assert result.reason == "byzantine_detected"
        assert record.abort_reason == "byzantine_detected"
        assert counts["rejected"] == 3 and counts["accepted"] == 0
        assert [h for h in hops if h[1] == "rejected"] == [
            (2, "rejected"),
            (3, "rejected"),
            (4, "rejected"),
        ]

    def test_terminated_instance_releases_its_executor(self, scheme):
        t, n = 1, 4

        async def scenario():
            async def send(message):
                return None

            manager = InstanceManager(1, send, registry=MetricRegistry())
            operation = _operation(scheme, t, n, 1, MESSAGES[0])
            manager.start_instance(
                NonInteractiveProtocol("inst", 1, operation), scheme
            )
            assert manager.active_count == 1
            await manager.handle_network_message(
                ProtocolMessage(
                    "inst", 2, 0, Channel.P2P,
                    honest_payload(scheme, t, n, 2, MESSAGES[0]),
                )
            )
            result = await manager.result("inst")
            assert manager.active_count == 0
            # The executor is traded for an outcome-table entry when its
            # task ends, a few loop turns after the waiter resumes.
            for _ in range(10):
                if "inst" not in manager._executors:
                    break
                await asyncio.sleep(0)
            assert "inst" not in manager._executors
            assert await manager.result("inst") == result  # from the table
            await manager.shutdown()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Check counts: what the honest path saves, what a forgery can cost.
# ---------------------------------------------------------------------------


def _network_schedules(t, n, forger=None, seed=0):
    """Per-node arrival orders for one signature on an n-node network:
    every node sees every peer's share, in a seeded random order; the
    forger's share is placed among the first t+1 arrivals."""
    rng = random.Random(f"lazy-admission/schedule/{t}/{n}/{seed}")
    schedules = {}
    for node in range(1, n + 1):
        peers = [p for p in range(1, n + 1) if p != node]
        rng.shuffle(peers)
        if forger is not None and forger != node:
            peers.remove(forger)
            peers.insert(rng.randrange(t), forger)
        schedules[node] = peers
    return schedules


@pytest.mark.parametrize("t,n", SHAPES)
class TestPairingCheckCounts:
    def _payload(self, t, n, sender, forger):
        make = forged_payload if sender == forger else honest_payload
        return make("bls04", t, n, sender, MESSAGES[0])

    def test_honest_run_is_one_check_per_node(self, t, n, pairing_checks):
        for node, order in _network_schedules(t, n).items():
            party = Party("bls04", t, n, node, MESSAGES[0])
            before = len(pairing_checks)
            result = party.run([party.honest(p) for p in order])
            assert result == party.expected
            assert len(pairing_checks) - before == 1, f"node {node}"

    def test_one_forger_costs_at_most_one_check_more_than_the_parent(
        self, t, n, pairing_checks
    ):
        forger = 2
        for seed in range(3):
            schedules = _network_schedules(t, n, forger=forger, seed=seed)
            for node, order in schedules.items():
                if node == forger:
                    continue
                schedule = [(p, self._payload(t, n, p, forger)) for p in order]
                party = Party("bls04", t, n, node, MESSAGES[0])
                before = len(pairing_checks)
                assert party.run(schedule) == party.expected
                lazy = len(pairing_checks) - before
                assert party.rejected == [forger]

                # The parent on the same schedule: one check per share it
                # looked at (the forged one included) plus the final one.
                looked_at = 0
                held = 0
                for p in order:
                    if held == t:
                        break
                    looked_at += 1
                    held += p != forger
                parent = looked_at + 1
                assert lazy <= parent + 1, (node, order, lazy, parent)


# ---------------------------------------------------------------------------
# Property: any schedule, any single-byte corruptions — same bytes.
# ---------------------------------------------------------------------------


@st.composite
def _schedules(draw, parties):
    """Shares from random peers in random order (repeats allowed), each
    possibly with one byte flipped, followed by every honest share so the
    quorum is always reachable."""
    peers = list(range(2, parties + 1))
    prefix = draw(st.lists(st.sampled_from(peers), max_size=parties + 2))
    flips = draw(
        st.lists(
            st.one_of(st.none(), st.tuples(st.integers(0, 10_000), st.integers(1, 255))),
            min_size=len(prefix),
            max_size=len(prefix),
        )
    )
    tail = draw(st.permutations(peers))
    return [(p, f) for p, f in zip(prefix, flips)] + [(p, None) for p in tail]


def _materialize(scheme, t, n, message, abstract):
    schedule = []
    for sender, flip in abstract:
        payload = honest_payload(scheme, t, n, sender, message)
        if flip is not None:
            index, mask = flip
            corrupted = bytearray(payload)
            corrupted[index % len(corrupted)] ^= mask
            payload = bytes(corrupted)
        schedule.append((sender, payload))
    return schedule


@pytest.mark.parametrize("scheme,t,n", CASES)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_lazy_result_equals_the_parents_eager_result(scheme, t, n, data):
    message = MESSAGES[1]
    schedule = _materialize(scheme, t, n, message, data.draw(_schedules(n)))
    party = Party(scheme, t, n, 1, message)
    result = party.run(schedule)
    assert result == party.expected
    assert result == eager_reference(scheme, t, n, message, schedule)


if __name__ == "__main__":  # pragma: no cover - vector recording helper
    import pprint

    pprint.pprint(record_parent_results(), width=100)
