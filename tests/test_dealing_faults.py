"""Red tests for ROADMAP item 18: keys must survive the faults requests survive.

The dealing protocol behind ``run_dkg`` and ``refresh_key`` waits for a
deal from every dealer and decides its outcome at each node alone.  Each
test below is one of item 18's probes on a 4-node ``LocalCluster`` (t = 1);
they are strict expected failures until item 18 lands, which turns them
green and removes the markers.  One more test pins how a DKG stalled on a
stopped node is reported until then.
"""

import asyncio
import importlib

import pytest

from repro.errors import RpcError
from repro.schemes.dealing import Deal
from repro.service.cluster import LocalCluster
from repro.sharing.shamir import ShamirShare

_PROTOCOL = importlib.import_module("repro.core.protocols.dealing")

#: Short enough that a run stalled on a missing deal ends quickly.
_INSTANCE_TIMEOUT = 2.0


def _one_bad_sub_share(monkeypatch, dealer: int, recipient: int) -> None:
    """Dealer ``dealer`` sends ``recipient`` a sub-share off its commitments."""
    honest = _PROTOCOL.deal

    def dishonest(dealer_id, *args):
        made = honest(dealer_id, *args)
        if dealer_id != dealer:
            return made
        shares = dict(made.sub_shares)
        shares[recipient] = ShamirShare(recipient, shares[recipient].value + 1)
        return Deal(dealer_id, made.commitment, shares)

    monkeypatch.setattr(_PROTOCOL, "deal", dishonest)


def _dkg_params(key_id: str) -> dict:
    return {"key_id": key_id, "scheme": "cks05", "group": "ed25519"}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 18(a): a bad sub-share disqualifies its dealer at one node only",
)
def test_18a_one_bad_dkg_sub_share_gives_one_key_or_none(monkeypatch):
    _one_bad_sub_share(monkeypatch, dealer=2, recipient=1)

    async def scenario():
        async with LocalCluster({}, instance_timeout=_INSTANCE_TIMEOUT) as cluster:
            return await cluster.client.broadcast("run_dkg", _dkg_params("dkg"))

    replies = asyncio.run(scenario())
    failed = [r for r in replies.values() if isinstance(r, Exception)]
    keys = {r["group_key"] for r in replies.values() if not isinstance(r, Exception)}
    assert len(failed) == len(replies) or (not failed and len(keys) == 1), replies


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 18(b): a DKG waits for a deal from every node",
)
def test_18b_dkg_finishes_with_one_node_down():
    async def scenario():
        async with LocalCluster({}, instance_timeout=_INSTANCE_TIMEOUT) as cluster:
            await cluster.stop(4)
            return await asyncio.gather(
                *(
                    cluster.client.call(i, "run_dkg", _dkg_params("dkg"))
                    for i in (1, 2, 3)
                ),
                return_exceptions=True,
            )

    replies = asyncio.run(scenario())
    assert not any(isinstance(r, Exception) for r in replies), replies
    assert len({r["group_key"] for r in replies}) == 1


def test_dkg_stalled_on_a_stopped_node_aborts_as_insufficient_shares():
    """Until item 18 finishes a DKG on n - t deals, a DKG with node 4
    stopped times out; the dealing reports its deals (3 of 4), so the abort
    is ``insufficient_shares``, not a timeout of unknown progress."""

    async def scenario():
        async with LocalCluster({}, instance_timeout=_INSTANCE_TIMEOUT) as cluster:
            await cluster.stop(4)
            replies = await asyncio.gather(
                *(
                    cluster.client.call(i, "run_dkg", _dkg_params("dkg"))
                    for i in (1, 2, 3)
                ),
                return_exceptions=True,
            )
            aborts = [node.stats()["aborts"] for node in cluster.nodes[:3]]
            return replies, aborts

    replies, aborts = asyncio.run(scenario())
    for reply in replies:
        assert isinstance(reply, RpcError), reply
        assert reply.reason == "insufficient_shares", reply
        assert "3/4 shares" in str(reply), reply
    assert aborts == [{"insufficient_shares": 1}] * 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 18(c): a bad refresh sub-share aborts only at its recipient",
)
def test_18c_one_bad_refresh_sub_share_leaves_one_epoch(monkeypatch, keys_cks05):
    _one_bad_sub_share(monkeypatch, dealer=2, recipient=3)

    async def scenario():
        async with LocalCluster(
            {"coin": keys_cks05}, instance_timeout=_INSTANCE_TIMEOUT
        ) as cluster:
            await cluster.client.broadcast("refresh_key", {"key_id": "coin"})
            return {
                node.keys.get("coin").public_key.to_bytes() for node in cluster.nodes
            }

    epochs = asyncio.run(scenario())
    assert len(epochs) == 1
