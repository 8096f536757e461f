"""Feldman dealing: distributed key generation and proactive refresh.

The paper notes that setup "can either be done by a centralized, trusted
dealer or through a distributed key-generation protocol [37, 27], which is
run by the parties themselves" (§2.2), and its related work points at CHURP
[32] for resharing.  Both are one construction here: every dealer in a
dealer set shares a secret with Feldman commitments, and every party sums
the verified sub-shares it received into its key share.

* **DKG** (Joint-Feldman): dealers 1..n each share a random secret; the
  group key aggregates the qualified dealers' commitments.  A dealer whose
  sub-share fails the VSS check is dropped; t+1 must qualify.
* **Resharing / proactive refresh**: a quorum Q (|Q| = t+1) of current
  share holders each shares its Lagrange-weighted share λ_i·x_i
  (:func:`refresh_secret`) toward a new access structure (t', n').  The
  combined commitments reproduce g^x in the constant term, so the **group
  public key is preserved** while every share changes; every dealer must
  qualify, since the weighted shares sum to x only over the whole quorum.
  With (t', n') = (t, n) old shares become useless to an attacker who
  compromised fewer than t+1 nodes per epoch.

:class:`repro.core.protocols.DealProtocol` runs this over the network
layer, one sub-share per directed message (:meth:`Deal.encode_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError, InvalidShareError, ProtocolAbortedError
from ..groups.base import Group, GroupElement
from ..mathutils.lagrange import lagrange_coefficients_at_zero
from ..serialization import Reader, encode_bytes, encode_int
from ..sharing.feldman import FeldmanCommitment, combine_commitments, feldman_share
from ..sharing.shamir import ShamirShare


@dataclass(frozen=True)
class Deal:
    """What one dealer deals: commitments (public) + sub-shares by recipient."""

    dealer_id: int
    commitment: FeldmanCommitment
    sub_shares: Mapping[int, ShamirShare]

    def encode_for(self, recipient: int) -> bytes:
        """The frame for one recipient: dealer id, commitment count,
        commitments, then that recipient's share id and value."""
        body = encode_int(self.dealer_id)
        body += encode_int(len(self.commitment.commitments))
        for commitment in self.commitment.commitments:
            body += encode_bytes(commitment.to_bytes())
        share = self.sub_shares[recipient]
        return body + encode_int(share.id) + encode_int(share.value)

    @classmethod
    def decode(cls, data: bytes, group: Group) -> "Deal":
        """A one-recipient deal from :meth:`encode_for`'s frame."""
        reader = Reader(data)
        dealer_id = reader.read_int()
        count = reader.read_int()
        commitments = tuple(
            group.element_from_bytes(reader.read_bytes()) for _ in range(count)
        )
        share = ShamirShare(reader.read_int(), reader.read_int())
        reader.finish()
        return cls(dealer_id, FeldmanCommitment(commitments), {share.id: share})


@dataclass(frozen=True)
class DealResult:
    """One party's output of a completed dealing."""

    party_id: int
    share_value: int
    group_key: GroupElement
    verification_keys: tuple[GroupElement, ...]
    qualified: tuple[int, ...]


def deal(
    dealer_id: int, secret: int, threshold: int, parties: int, group: Group
) -> Deal:
    """Share ``secret`` among ``parties`` with a degree-``threshold``
    polynomial; an invalid (t, n) is a :class:`ConfigurationError`."""
    shares, commitment = feldman_share(secret, threshold, parties, group)
    return Deal(dealer_id, commitment, {s.id: s for s in shares})


def refresh_secret(
    dealer_id: int, share_value: int, dealers: Sequence[int], group: Group
) -> int:
    """λ_i·x_i: what current holder ``dealer_id`` deals in a resharing."""
    if dealer_id not in dealers:
        raise ConfigurationError("dealer must be part of the resharing quorum")
    lam = lagrange_coefficients_at_zero(list(dealers), group.order)
    return (lam[dealer_id] * share_value) % group.order


def finalize(
    party_id: int,
    deals: Mapping[int, Deal],
    need: int,
    parties: int,
    group: Group,
) -> DealResult:
    """Verify and sum the sub-shares addressed to ``party_id``.

    A dealer whose sub-share fails the Feldman check is dropped; unless
    ``need`` dealers qualify, the run aborts as ``byzantine_detected``,
    naming the dropped dealers.
    """
    qualified: list[int] = []
    dropped: list[int] = []
    total = 0
    commitments: list[FeldmanCommitment] = []
    for dealer_id in sorted(deals):
        deal_ = deals[dealer_id]
        sub_share = deal_.sub_shares[party_id]
        try:
            deal_.commitment.verify_share(sub_share)
        except InvalidShareError:
            dropped.append(dealer_id)
            continue
        qualified.append(dealer_id)
        total = (total + sub_share.value) % group.order
        commitments.append(deal_.commitment)
    if len(qualified) < need:
        raise ProtocolAbortedError(
            f"only {len(qualified)} qualified dealers, need {need}; "
            f"dropped dealers {dropped}",
            reason="byzantine_detected",
        )
    combined = combine_commitments(commitments)
    verification_keys = tuple(
        combined.expected_share_commitment(i) for i in range(1, parties + 1)
    )
    return DealResult(
        party_id, total, combined.public_key(), verification_keys, tuple(qualified)
    )
