"""Feldman dealing (DKG and proactive refresh) as a one-round TRI protocol.

Every dealer shares its secret per :mod:`repro.schemes.dealing`: the
Feldman commitments travel with each sub-share in a *directed* P2P message
to its recipient.  Once a deal from every dealer arrived, each party
finalizes locally; ``need`` says how many dealers must survive the VSS
check there (t+1 of n for a DKG, the whole quorum for a refresh).
"""

from __future__ import annotations

from typing import Iterable

from ...errors import InvalidShareError, ProtocolError
from ...groups.base import Group
from ...schemes.dealing import Deal, DealResult, deal, finalize
from ..messages import Channel, ProtocolMessage
from ..tri import ThresholdRoundProtocol


class DealProtocol(ThresholdRoundProtocol):
    """One party's view of a dealing among ``dealers``.

    ``secret`` is what this party deals; a party outside ``dealers`` deals
    nothing and passes ``None``.
    """

    def __init__(
        self,
        instance_id: str,
        party_id: int,
        threshold: int,
        parties: int,
        group: Group,
        dealers: Iterable[int],
        secret: int | None,
        need: int,
    ):
        super().__init__(instance_id, party_id)
        self._threshold = threshold
        self._parties = parties
        self._group = group
        self._dealers = frozenset(dealers)
        self._secret = secret
        self._need = need
        self._deals: dict[int, Deal] = {}
        self._result: DealResult | None = None
        self._started = False

    def do_round(self) -> list[ProtocolMessage]:
        if self._started:
            raise ProtocolError("a dealing deals once")
        self._started = True
        if self.party_id not in self._dealers:
            return []
        own = deal(
            self.party_id, self._secret, self._threshold, self._parties, self._group
        )
        self._deals[self.party_id] = own
        return [
            ProtocolMessage(
                self.instance_id,
                self.party_id,
                round=0,
                channel=Channel.P2P,
                payload=own.encode_for(recipient),
                recipient=recipient,
            )
            for recipient in range(1, self._parties + 1)
            if recipient != self.party_id
        ]

    def update(self, message: ProtocolMessage) -> None:
        if message.sender == self.party_id:
            return
        received = Deal.decode(message.payload, self._group)
        (share_id,) = received.sub_shares
        if received.dealer_id != message.sender:
            problem = f"it claims dealer {received.dealer_id}"
        elif message.sender not in self._dealers:
            problem = "the sender is not a dealer"
        elif share_id != self.party_id:
            problem = f"its sub-share is addressed to party {share_id}"
        elif len(received.commitment.commitments) != self._threshold + 1:
            problem = (
                f"it has {len(received.commitment.commitments)} commitments, "
                f"not {self._threshold + 1}"
            )
        else:
            self._deals[message.sender] = received
            return
        raise InvalidShareError(f"deal from party {message.sender}: {problem}")

    def is_ready_for_next_round(self) -> bool:
        return False

    def is_ready_to_finalize(self) -> bool:
        return self._started and len(self._deals) == len(self._dealers)

    def progress(self) -> tuple[int, int]:
        return len(self._deals), len(self._dealers)

    def finalize(self) -> bytes:
        if not self.is_ready_to_finalize():
            raise ProtocolError("dealing finalized before every deal arrived")
        self._result = finalize(
            self.party_id, self._deals, self._need, self._parties, self._group
        )
        self.mark_finalized()
        return self._result.group_key.to_bytes()

    @property
    def result(self) -> DealResult:
        if self._result is None:
            raise ProtocolError("dealing not finalized yet")
        return self._result
