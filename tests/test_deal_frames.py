"""Hostile deal frames: the dealing decoder's table and forged frames on a
4-node network.

A deal frame comes from a peer, so :meth:`DealProtocol.update` must accept
it or reject it with a :class:`SerializationError` or an
:class:`InvalidShareError` (the sender at fault), never another exception:
the executor drops and counts a rejected frame, and anything else ends the
recipient's run as ``internal``.  The table is frozen (a row that changes
sides is a behaviour change to be argued); the property throws truncations,
bit flips and random bytes at the same entry point.  Same shape as
``tests/test_coin_frost_decoders.py``.

The network table forges one frame to node 3 before a DKG, a refresh or a
FROST signature starts: every node must still finish with the same result,
and node 3 must count exactly one rejection.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import InstanceManager
from repro.core.protocols import DealProtocol, FrostProtocol
from repro.errors import InvalidShareError, SerializationError
from repro.groups import get_group
from repro.network.local import LocalHub
from repro.network.manager import NetworkManager
from repro.schemes import get_scheme
from repro.schemes.dealing import Deal, deal, refresh_secret
from repro.schemes.kg20 import Kg20Signature
from repro.sharing.feldman import FeldmanCommitment
from repro.sharing.shamir import ShamirShare
from repro.telemetry import MetricRegistry
from tests.test_cipher_decoders import (
    ED_BASE,
    ED_IDENTITY,
    ED_ORDER_FOUR,
    ED_Y_TOO_BIG,
    _b,
)
from tests.test_scheme_sh00 import _ints, _mutants

_ED25519 = get_group("ed25519")

#: Dealer 2's frame to party 3 in a t = 1 DKG, written out field by field:
#: dealer id, commitment count, commitments, share id, share value.  The
#: polynomial is f(x) = 1 + 0·x (C₀ = g, C₁ = identity), so f(3) = 1.
_FRAME = _ints(2, 2) + _b(ED_BASE, ED_IDENTITY) + _ints(3, 1)

#: A real deal's frame from dealer 2 to party 3: the mutants' ancestor.
_REAL = deal(2, 12345, 1, 4, _ED25519).encode_for(3)

#: (case, sender, frame, decoded fields or the error update() raises).
_UPDATE_TABLE = [
    ("hand-built deal", 2, _FRAME, (2, (ED_BASE, ED_IDENTITY), 3, 1)),
    ("truncated", 2, _FRAME[:-1], SerializationError),
    ("trailing byte", 2, _FRAME + b"\x00", SerializationError),
    ("no commitments", 2, _ints(2, 0) + _ints(3, 1), InvalidShareError),
    ("t+2 commitments", 2,
     _ints(2, 3) + _b(ED_BASE, ED_IDENTITY, ED_IDENTITY) + _ints(3, 1),
     InvalidShareError),
    ("sub-share for party 4", 2,
     _ints(2, 2) + _b(ED_BASE, ED_IDENTITY) + _ints(4, 1), InvalidShareError),
    ("commitment y >= p", 2,
     _ints(2, 2) + _b(ED_Y_TOO_BIG, ED_IDENTITY) + _ints(3, 1), SerializationError),
    ("commitment of order four", 2,
     _ints(2, 2) + _b(ED_BASE, ED_ORDER_FOUR) + _ints(3, 1), SerializationError),
    ("2^32 commitments, two sent", 2,
     _ints(2, 2**32) + _b(ED_BASE, ED_IDENTITY) + _ints(3, 1), SerializationError),
    ("non-minimal share value", 2,
     _ints(2, 2) + _b(ED_BASE, ED_IDENTITY) + _ints(3) + b"\x00\x00\x00\x02\x00\x01",
     SerializationError),
    ("claims dealer 1", 2,
     _ints(1, 2) + _b(ED_BASE, ED_IDENTITY) + _ints(3, 1), InvalidShareError),
    ("dealer 7 of 4", 7,
     _ints(7, 2) + _b(ED_BASE, ED_IDENTITY) + _ints(3, 1), InvalidShareError),
]


def _receiver() -> DealProtocol:
    """Party 3 of a t = 1, n = 4 DKG, its own deal made."""
    protocol = DealProtocol("forged", 3, 1, 4, _ED25519, range(1, 5), 5, need=2)
    protocol.do_round()
    return protocol


def _frame(sender: int, payload: bytes, round_: int = 0) -> ProtocolMessage:
    """A frame of instance ``forged`` from ``sender`` to node 3."""
    return ProtocolMessage("forged", sender, round_, Channel.P2P, payload, 3)


class TestDealUpdateTable:
    @pytest.mark.parametrize(
        "sender,data,expected",
        [row[1:] for row in _UPDATE_TABLE],
        ids=[row[0] for row in _UPDATE_TABLE],
    )
    def test_accept_reject_table(self, sender, data, expected):
        protocol = _receiver()
        if isinstance(expected, type):
            with pytest.raises(expected):
                protocol.update(_frame(sender, data))
            return
        protocol.update(_frame(sender, data))
        decoded = Deal.decode(data, _ED25519)
        (share,) = decoded.sub_shares.values()
        commitments = decoded.commitment.commitments
        assert (
            decoded.dealer_id, tuple(c.to_bytes() for c in commitments),
            share.id, share.value,
        ) == expected
        decoded.commitment.verify_share(share)

    def test_a_real_deal_round_trips(self):
        assert Deal.decode(_REAL, _ED25519).encode_for(3) == _REAL
        _receiver().update(_frame(2, _REAL))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutants_are_accepted_or_rejected_by_name(self, data):
        mutant = data.draw(_mutants(_REAL))
        try:
            _receiver().update(_frame(2, mutant))
        except (SerializationError, InvalidShareError):
            pass


#: (case, protocol run, the frame forged to node 3 before the start).
_FORGED = [
    ("dkg, dealer id differs from sender", "dkg",
     _frame(2, deal(1, 5, 1, 4, _ED25519).encode_for(3))),
    ("dkg, dealer outside the dealers", "dkg",
     _frame(7, deal(7, 5, 1, 4, _ED25519).encode_for(3))),
    ("dkg, sub-share for another party", "dkg",
     _frame(2, deal(2, 5, 1, 4, _ED25519).encode_for(4))),
    ("refresh, no commitments", "refresh",
     _frame(1, Deal(1, FeldmanCommitment(()), {3: ShamirShare(3, 1)}).encode_for(3))),
    ("refresh, t+2 commitments", "refresh",
     _frame(1, deal(1, 5, 2, 4, _ED25519).encode_for(3))),
    ("frost, round 7", "frost", _frame(2, b"", round_=7)),
]


def _protocols(run: str, keys_cks05, keys_kg20) -> dict:
    parties = range(1, 5)
    if run == "dkg":
        return {
            i: DealProtocol(
                "forged", i, 1, 4, _ED25519, parties, _ED25519.random_scalar(), need=2
            )
            for i in parties
        }
    if run == "refresh":
        dealers = (1, 2)
        return {
            i: DealProtocol(
                "forged", i, 1, 4, _ED25519, dealers,
                refresh_secret(i, keys_cks05.share_for(i).value, dealers, _ED25519)
                if i in dealers
                else None,
                need=2,
            )
            for i in parties
        }
    return {
        i: FrostProtocol("forged", keys_kg20.share_for(i), b"forged frame")
        for i in parties
    }


@pytest.mark.parametrize(
    "run,forged", [row[1:] for row in _FORGED], ids=[row[0] for row in _FORGED]
)
def test_a_forged_frame_costs_node_3_one_rejection(run, forged, keys_cks05, keys_kg20):
    async def scenario():
        hub = LocalHub(latency=lambda src, dst: 0.001)
        networks = {
            i: NetworkManager(hub.endpoint(i)) for i in (1, 2, 3, 4, 7)
        }
        managers = {
            i: InstanceManager(
                i, networks[i].dispatch, default_timeout=10.0, registry=MetricRegistry()
            )
            for i in (1, 2, 3, 4)
        }
        for i, manager in managers.items():
            networks[i].set_protocol_handler(manager.handle_network_message)
        await networks[7].dispatch(forged)
        await hub.drain()
        for i, protocol in _protocols(run, keys_cks05, keys_kg20).items():
            managers[i].start_instance(protocol, run)
        try:
            results = await asyncio.gather(
                *(managers[i].result("forged") for i in managers)
            )
            rejected = {
                i: manager.metrics.messages.labels(run, "rejected").value
                for i, manager in managers.items()
            }
        finally:
            for manager in managers.values():
                await manager.shutdown()
        return results, rejected

    results, rejected = asyncio.run(scenario())
    assert len(set(results)) == 1
    assert rejected == {1: 0, 2: 0, 3: 1, 4: 0}
    if run == "refresh":
        assert results[0] == keys_cks05.public_key.h.to_bytes()
    if run == "frost":
        get_scheme("kg20").verify(
            keys_kg20.public_key,
            b"forged frame",
            Kg20Signature.from_bytes(results[0], _ED25519),
        )
