"""The one crypto seam: a five-function TRI, a one-path executor, and a
scheduler that only pre-fills a share operation's memo slots.

The contract (docs/performance.md, "Architecture"): the scheduler
may run an operation's *pure* crypto elsewhere and leave the result in the
own-share memo or the per-payload verdict memo; ``do_round()`` and
``update()`` then run exactly as they do without a scheduler.  So pooled
and inline executions of one message schedule must be indistinguishable —
counters, trace, result — and a memoised verdict must never decide more
than the cryptographic question for the exact bytes it was computed over.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import pkgutil

import pytest

import repro.core.protocols as protocols_package
from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import CryptoScheduler, InstanceManager
from repro.core.protocols import NonInteractiveProtocol, OperationRequest, make_operation
from repro.core.protocols.operations import ShareOperation
from repro.core.tri import ThresholdRoundProtocol
from repro.errors import DuplicateShareError, InvalidShareError, SerializationError
from repro.schemes import generate_keys
from repro.schemes.base import get_scheme
from repro.schemes.keystore import export_public_key
from repro.telemetry import MetricRegistry
from repro.workers import CryptoPoolUnavailable, PolicyDecision, parent_store
from repro.workers import tasks as pool_tasks

from .test_adaptive_offload import FakePool

EAGER, LAZY = ("sg02", "bz03", "cks05"), ("bls04", "sh00")
T, N = 3, 5  # quorum of 4: the local share plus three peers'

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
# A pool that runs the worker tasks in this process.
# ---------------------------------------------------------------------------


async def _run_task(op, fn, args):
    """What CryptoPool.run does, minus the processes: the task function,
    retried once with the blobs a cold worker cache asks for."""
    try:
        return fn(*args)
    except pool_tasks.BlobCacheMissError as miss:
        blobs = {digest: parent_store().get_blob(digest) for digest in miss.digests}
        return fn(*args, blobs=blobs)


class InProcessPool(FakePool):
    """FakePool plus the three members the scheduler asks a pool for."""

    enabled = True

    def __init__(self, handler=_run_task, offload=True):
        super().__init__(handler)
        self.offload = offload
        self.observed: list[tuple[str, str, int]] = []

    def decide(self, op):
        return PolicyDecision("offload" if self.offload else "inline", "forced")

    def observe(self, op, path, seconds, items=1):
        self.observed.append((op.split(":")[1], path, items))


# ---------------------------------------------------------------------------
# One scripted schedule, inline and through the scheduler.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def material(small_modulus):
    """(3, 5) keys per scheme plus two requests: the one served and another
    whose shares decode fine but fail verification against the first."""
    found = {}
    for scheme in EAGER + LAZY:
        extra = {"rsa_modulus": small_modulus} if scheme == "sh00" else {}
        keys = generate_keys(scheme, T, N, **extra)
        kind = {"sg02": "decrypt", "bz03": "decrypt", "cks05": "coin"}.get(scheme, "sign")
        data = [f"scheduler seam {i}".encode() for i in range(2)]
        if kind == "decrypt":
            data = [
                get_scheme(scheme).encrypt(keys.public_key, d, b"").to_bytes()
                for d in data
            ]
        found[scheme] = (keys, [OperationRequest(kind, d) for d in data])
    return found


def _operation(material, scheme, party, request=0) -> ShareOperation:
    keys, requests = material[scheme]
    return make_operation(
        scheme, keys.public_key, keys.share_for(party), requests[request]
    )


def _share(material, scheme, party, request=0) -> bytes:
    return _operation(material, scheme, party, request).create_own_share()


def _schedule(material, scheme):
    """Malformed, forged, honest, its identical duplicate, a conflicting
    duplicate, and the two honest shares that complete the quorum."""
    honest = {party: _share(material, scheme, party) for party in (3, 4, 5)}
    return [
        (2, b"junk"),
        (2, _share(material, scheme, 2, request=1)),
        (3, honest[3]),
        (3, honest[3]),
        (3, _share(material, scheme, 3, request=1)),
        (4, honest[4]),
        (5, honest[5]),
    ]


async def _run_node(material, scheme, schedule, crypto=None):
    """Node 1's executor fed ``schedule``, all of it queued before the
    first round runs (what a slow node sees when its peers are fast)."""

    async def send(message):
        return None

    manager = InstanceManager(
        1, send, default_timeout=5.0, registry=MetricRegistry(), crypto=crypto
    )
    protocol = NonInteractiveProtocol("inst", 1, _operation(material, scheme, 1))
    updates = []
    update = protocol.update
    protocol.update = lambda message: (updates.append(message.sender), update(message))[1]
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
    return result, hops, counts, updates


@pytest.mark.parametrize("scheme", EAGER + LAZY)
class TestPooledEqualsInline:
    def test_same_counters_trace_and_result(self, material, scheme):
        schedule = _schedule(material, scheme)
        pool = InProcessPool()
        inline = asyncio.run(_run_node(material, scheme, schedule))
        pooled = asyncio.run(
            _run_node(material, scheme, schedule, CryptoScheduler(pool))
        )
        assert pooled == inline
        result, hops, counts, updates = pooled
        # Every message went through protocol.update, in arrival order.
        assert updates == [sender for sender, _ in schedule]
        assert counts["duplicate"] == 1
        # ... and the pool did the work: the own share, then the checks.
        ops = [op.split(":")[1] for op, _, _ in pool.calls]
        assert ops[0] == "create_share" and "verify_shares" in ops
        if scheme in EAGER:
            assert hops == [
                (2, "rejected"), (2, "rejected"), (3, "accepted"),
                (3, "duplicate"), (3, "rejected"), (4, "accepted"), (5, "accepted"),
            ]
        else:
            # Lazy until the conflict over id 3 forces a check, which also
            # finds the forgery held for id 2; eager (pre-verified) after.
            assert hops == [
                (2, "rejected"), (2, "accepted"), (3, "accepted"),
                (3, "duplicate"), (2, "rejected"), (3, "rejected"),
                (4, "accepted"), (5, "accepted"),
            ]
            assert ops.count("verify_shares") == 1  # [4, 5] in one task


# ---------------------------------------------------------------------------
# The verdict memo answers one question, once, for exact bytes.
# ---------------------------------------------------------------------------


class TestVerdictMemo:
    def _checked(self, operation):
        """The operation with its local per-share check counted."""
        checked = []
        verify = operation._verify_decoded
        operation._verify_decoded = lambda share: (checked.append(share.id), verify(share))[1]
        return checked

    def test_a_verdict_is_consumed_once_and_only_by_its_bytes(self, material):
        operation = _operation(material, "cks05", 1)
        checked = self._checked(operation)
        honest, forged = _share(material, "cks05", 4), _share(material, "cks05", 4, 1)
        operation.verdicts[honest] = None
        # Other bytes under the same id: no verdict, so checked — and bad.
        with pytest.raises(InvalidShareError):
            operation.accept_share(forged)
        assert checked == [4] and honest in operation.verdicts
        operation.accept_share(honest)
        assert checked == [4] and not operation.verdicts
        assert operation.share_count == 1

    def test_a_valid_verdict_does_not_override_duplicate_policing(self, material):
        operation = _operation(material, "cks05", 1)
        checked = self._checked(operation)
        honest = _share(material, "cks05", 3)
        operation.accept_share(honest)
        operation.verdicts[honest] = None
        with pytest.raises(DuplicateShareError):
            operation.accept_share(honest)
        assert not operation.verdicts
        # The entry is gone: the next copy is checked here again.
        with pytest.raises(DuplicateShareError):
            operation.accept_share(honest)
        assert checked == [3, 3] and operation.share_count == 1

    def test_a_rejecting_verdict_rejects_with_its_reason(self, material):
        operation = _operation(material, "cks05", 1)
        honest = _share(material, "cks05", 3)
        operation.verdicts[honest] = "worker said no"
        with pytest.raises(InvalidShareError, match="worker said no"):
            operation.accept_share(honest)
        assert operation.share_count == 0 and not operation.verdicts

    def test_decoding_runs_before_any_verdict(self, material):
        operation = _operation(material, "cks05", 1)
        operation.verdicts[b"junk"] = None
        with pytest.raises(SerializationError):
            operation.accept_share(b"junk")
        assert operation.share_count == 0


# ---------------------------------------------------------------------------
# How much is verified, and where the EWMA samples come from.
# ---------------------------------------------------------------------------


@pytest.fixture
def verified(monkeypatch):
    """Batch sizes of every ``verify_payloads`` call, worker-side included."""
    sizes = []
    original = ShareOperation.verify_payloads

    def counting(self, payloads):
        sizes.append(len(payloads))
        return original(self, payloads)

    monkeypatch.setattr(ShareOperation, "verify_payloads", counting)
    return sizes


class TestVerificationBudget:
    def test_at_most_the_deficit_per_wakeup_and_none_after_quorum(
        self, material, verified
    ):
        schedule = [(p, _share(material, "cks05", p)) for p in (2, 3, 4, 5)]
        crypto = CryptoScheduler(InProcessPool())
        _, hops, _, updates = asyncio.run(_run_node(material, "cks05", schedule, crypto))
        # Deficit 3: parties 2-4 in one task; party 5's share is surplus.
        assert verified == [3]
        assert updates == [2, 3, 4]

    def test_a_rejected_share_reopens_the_deficit_by_one(self, material, verified):
        schedule = [(2, _share(material, "cks05", 2, request=1))] + [
            (p, _share(material, "cks05", p)) for p in (3, 4, 5)
        ]
        crypto = CryptoScheduler(InProcessPool())
        _, hops, _, _ = asyncio.run(_run_node(material, "cks05", schedule, crypto))
        assert verified == [3, 1]
        assert hops == [(2, "rejected"), (3, "accepted"), (4, "accepted"), (5, "accepted")]

    def test_a_transport_duplicate_is_one_payload_in_the_batch(self, material, verified):
        share = _share(material, "cks05", 2)
        schedule = [(2, share), (2, share)] + [
            (p, _share(material, "cks05", p)) for p in (3, 4)
        ]
        crypto = CryptoScheduler(InProcessPool())
        _, hops, _, _ = asyncio.run(_run_node(material, "cks05", schedule, crypto))
        # [2, 3, 4] once; the echo of 2 has no verdict left and is checked
        # alone, as the inline path checks a duplicate before naming it.
        assert verified == [3, 1]
        assert hops[:2] == [(2, "accepted"), (2, "duplicate")]

    def test_lazy_operations_are_never_preverified(self, material, verified):
        schedule = [(p, _share(material, "bls04", p)) for p in (2, 3, 4)]
        pool = InProcessPool()
        asyncio.run(_run_node(material, "bls04", schedule, CryptoScheduler(pool)))
        assert verified == []
        assert [op.split(":")[1] for op, _, _ in pool.calls] == ["create_share"]


class TestPolicyAndDegradation:
    def test_inline_ruling_still_feeds_the_inline_ewma(self, material):
        schedule = [(p, _share(material, "cks05", p)) for p in (2, 3, 4)]
        pool = InProcessPool(offload=False)
        inline = asyncio.run(_run_node(material, "cks05", schedule))
        ruled = asyncio.run(
            _run_node(material, "cks05", schedule, CryptoScheduler(pool))
        )
        assert ruled == inline
        assert pool.calls == []
        assert pool.observed == [
            ("create_share", "inline", 1), ("verify_shares", "inline", 3),
        ]

    def test_pool_ruling_feeds_the_pool_ewma(self, material):
        schedule = [(p, _share(material, "cks05", p)) for p in (2, 3, 4)]
        pool = InProcessPool()
        asyncio.run(_run_node(material, "cks05", schedule, CryptoScheduler(pool)))
        assert pool.observed == [
            ("create_share", "pool", 1), ("verify_shares", "pool", 3),
        ]

    def test_pool_lost_mid_instance_finalises_inline(self, material):
        fallbacks = []

        async def dies_after_one_task(op, fn, args):
            if fallbacks or op.endswith("verify_shares"):
                fallbacks.append(op)  # CryptoPool.run counts exactly here
                raise CryptoPoolUnavailable("worker crashed")
            return await _run_task(op, fn, args)

        schedule = [(p, _share(material, "cks05", p)) for p in (2, 3, 4)]
        pool = InProcessPool(dies_after_one_task)
        inline = asyncio.run(_run_node(material, "cks05", schedule))
        degraded = asyncio.run(
            _run_node(material, "cks05", schedule, CryptoScheduler(pool))
        )
        assert degraded == inline
        assert fallbacks == ["cks05:verify_shares"]
        assert pool.observed == [
            ("create_share", "pool", 1), ("verify_shares", "inline", 3),
        ]


@pytest.mark.parametrize("scheme", EAGER + LAZY)
def test_worker_task_and_adapter_return_the_same_verdicts(material, scheme):
    keys, requests = material[scheme]
    spec = {
        "scheme": scheme,
        "public": export_public_key(scheme, keys.public_key),
        "kind": requests[0].kind,
        "data": requests[0].data,
    }
    honest = [_share(material, scheme, p) for p in (2, 3)]
    forged = _share(material, scheme, 4, request=1)
    operation = _operation(material, scheme, 1)
    for payloads in (honest, honest + [b"junk", forged], [forged], [b"junk"], []):
        verdicts = operation.verify_payloads(payloads)
        assert pool_tasks.verify_shares(spec, payloads) == verdicts
        assert [v is None for v in verdicts] == [p in honest for p in payloads]
    assert operation.share_count == 0 and not operation.verdicts
