"""Scheme adapters: the bridge between the protocols and schemes modules.

A :class:`ShareOperation` gives the generic one-round protocol a uniform
view of "make my partial result / verify and store a peer's partial result /
combine", hiding whether the underlying operation is a decryption, a
signature, or a coin toss.  Adding a scheme to the suite means adding an
adapter here — the protocol module "will automatically support the new
scheme" (§3.5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ...errors import (
    ConfigurationError,
    DuplicateShareError,
    InvalidShareError,
    ThetacryptError,
)
from ...schemes import bls04, bz03, cks05, sg02, sh00
from ...schemes.base import (
    ThresholdCipher,
    ThresholdCoin,
    ThresholdSignature,
    get_scheme,
)


@dataclass(frozen=True)
class OperationRequest:
    """What the application asked for, scheme-agnostically.

    ``kind`` is one of ``decrypt``, ``sign``, ``coin``; ``data`` is the
    ciphertext / message / coin name respectively.
    """

    kind: str
    data: bytes
    label: bytes = b""


class ShareOperation(ABC):
    """One threshold operation in progress at one party.

    An adapter whose ``combine`` ends in a public verification of its own
    output (``self_verifying``: the signature schemes) admits peer shares
    *unverified* and lets that one check judge the quorum — see
    :meth:`settle`.  Every other adapter verifies each share on arrival.
    """

    #: combine() verifies the result it assembled, so a per-share check
    #: before it proves nothing more — except who lied, when someone did.
    self_verifying = False

    def __init__(self, scheme, public_key, key_share, request: OperationRequest):
        self._scheme = scheme
        self.public_key = public_key
        self.key_share = key_share
        self.request = request
        self.threshold: int = public_key.threshold
        self._shares: dict[int, object] = {}
        #: Ids of held shares no check has covered yet (lazy admission).
        self._unverified: set[int] = set()
        #: Lazy until a combined result fails its check or two payloads
        #: contend for one id; eager (verify on arrival) from then on.
        self._lazy = self.self_verifying
        self._result: bytes | None = None

    @abstractmethod
    def create_own_share(self) -> bytes:
        """Compute this party's partial result, store it, and serialize it."""

    @abstractmethod
    def _decode(self, payload: bytes) -> object:
        """Decode a peer's serialized share (no cryptographic checks)."""

    @abstractmethod
    def _verify_decoded(self, share: object) -> None:
        """Verify a decoded share (raising CryptoError if bad)."""

    @abstractmethod
    def combine(self) -> bytes:
        """Assemble the stored shares into the final serialized result."""

    @property
    def admits_unverified(self) -> bool:
        """True while peer shares are stored without a per-share check."""
        return self._lazy

    def accept_share(self, payload: bytes) -> None:
        """Decode a peer's partial result and store it — verified first,
        unless this operation is (still) admitting lazily.

        Rejection is total: a byzantine peer controls every payload byte,
        so decode errors of any flavour (not just the library's own) are
        normalised to :class:`InvalidShareError` — the executor drops the
        share and the aggregate is never poisoned.

        ``ProtocolMessage.sender`` is not authenticated, so a share held
        unverified must never shadow the honest one for its id: a second,
        *different* share for such an id is not a duplicate but a conflict,
        resolved on the spot by verifying (:meth:`_resolve_conflict`).
        """
        try:
            share = self._decode(payload)
            if self._lazy:
                if not 1 <= share.id <= self.public_key.parties:
                    raise InvalidShareError(f"share id {share.id} out of range")
            else:
                self._verify_decoded(share)
        except ThetacryptError:
            raise
        except Exception as exc:  # noqa: BLE001 - arbitrary bytes, arbitrary errors
            raise InvalidShareError(f"malformed share payload: {exc}") from exc
        held = self._shares.get(share.id)
        if held is None:
            self._shares[share.id] = share
            if self._lazy:
                self._unverified.add(share.id)
        elif not self._lazy or held == share:
            raise DuplicateShareError(f"duplicate share from party {share.id}")
        else:
            self._resolve_conflict(share)

    def settle(self) -> None:
        """Judge the shares held unverified, once, when the quorum forms.

        Combines the t+1 held shares and lets the scheme's own final
        ``verify`` decide; the bytes are kept for :meth:`result`.  Only if
        that fails are the unverified shares checked one by one: culprits
        are evicted (freeing their ids for the honest owners), survivors
        count as verified, the instance turns eager, and
        :class:`InvalidShareError` names the culprits — so a byzantine
        peer buys one wasted combine per instance, never a loop.  A no-op
        in every other state.
        """
        if self._result is not None or not (self._unverified and self.have_quorum):
            return
        try:
            self._result = self.combine()
        except Exception as exc:  # noqa: BLE001 - unverified inputs, arbitrary errors
            failure = exc
        else:
            self._unverified.clear()
            return
        culprits = self._verify_held(combine_failed=True)
        if culprits:
            raise InvalidShareError(
                f"combined result rejected ({failure}); "
                f"invalid shares from ids {culprits}",
                culprits,
            ) from failure
        # Every share checks out, so the failure is not a share's:
        # result() repeats the combine and reports it.

    def result(self) -> bytes:
        """The combined result: the one :meth:`settle` already verified,
        else :meth:`combine` now."""
        if self._result is None:
            self._result = self.combine()
        return self._result

    def _is_valid(self, share: object) -> bool:
        try:
            self._verify_decoded(share)
        except Exception:  # noqa: BLE001 - unverified bytes, arbitrary errors
            return False
        return True

    def _verify_held(self, combine_failed: bool = False) -> list[int]:
        """Leave lazy mode: check every share held unverified, evict the
        invalid ones and return their ids.

        When a combine over exactly the quorum failed and a single share
        in it was unverified, that share is the culprit without a check.
        """
        self._lazy = False
        pending = [self._shares[i] for i in sorted(self._unverified)]
        self._unverified.clear()
        exact_quorum = len(self._shares) == self.threshold + 1
        if combine_failed and exact_quorum and len(pending) == 1:
            culprits = [pending[0].id]
        else:
            culprits = [s.id for s in pending if not self._is_valid(s)]
        for share_id in culprits:
            del self._shares[share_id]
        return culprits

    def _resolve_conflict(self, share: object) -> None:
        """Two different shares claim one id: verify now, keep a valid one.

        Raises :class:`InvalidShareError` naming every share that failed
        (an id appears twice if both its payloads were bad), or
        :class:`DuplicateShareError` when both were valid.
        """
        culprits = self._verify_held()
        if not self._is_valid(share):
            culprits.append(share.id)
        elif share.id not in self._shares:
            self._shares[share.id] = share
        elif not culprits:
            raise DuplicateShareError(f"duplicate share from party {share.id}")
        if culprits:
            raise InvalidShareError(
                f"conflicting shares for party {share.id}; "
                f"invalid shares from ids {culprits}",
                culprits,
            )

    def _store_own(self, share: object) -> None:
        self._shares[share.id] = share

    @property
    def share_count(self) -> int:
        return len(self._shares)

    @property
    def have_quorum(self) -> bool:
        return self.share_count >= self.threshold + 1


class DecryptOperation(ShareOperation):
    """Threshold decryption for SG02 and BZ03."""

    def __init__(self, scheme: ThresholdCipher, public_key, key_share, request):
        super().__init__(scheme, public_key, key_share, request)
        if isinstance(scheme, sg02.Sg02Cipher):
            self._ciphertext = sg02.Sg02Ciphertext.from_bytes(
                request.data, public_key.group
            )
        else:
            self._ciphertext = bz03.Bz03Ciphertext.from_bytes(request.data)

    def create_own_share(self) -> bytes:
        share = self._scheme.create_decryption_share(self.key_share, self._ciphertext)
        self._store_own(share)
        return share.to_bytes()

    def _decode(self, payload: bytes):
        if isinstance(self._scheme, sg02.Sg02Cipher):
            return sg02.Sg02DecryptionShare.from_bytes(
                payload, self.public_key.group
            )
        return bz03.Bz03DecryptionShare.from_bytes(payload)

    def _verify_decoded(self, share) -> None:
        self._scheme.verify_decryption_share(self.public_key, self._ciphertext, share)

    def combine(self) -> bytes:
        # No CCA check here: finalize needs do_round, whose
        # create_own_share() ran it.
        return self._scheme.combine(
            self.public_key, self._ciphertext, list(self._shares.values())
        )


class SignOperation(ShareOperation):
    """Non-interactive threshold signing for SH00 and BLS04.

    Both schemes' ``combine`` verifies the signature it assembled, so peer
    shares are admitted lazily (:meth:`ShareOperation.settle`).
    """

    self_verifying = True

    def create_own_share(self) -> bytes:
        share = self._scheme.partial_sign(self.key_share, self.request.data)
        self._store_own(share)
        return share.to_bytes()

    def _decode(self, payload: bytes):
        if isinstance(self._scheme, sh00.Sh00SignatureScheme):
            return sh00.Sh00SignatureShare.from_bytes(payload)
        return bls04.Bls04SignatureShare.from_bytes(payload)

    def _verify_decoded(self, share) -> None:
        self._scheme.verify_signature_share(
            self.public_key, self.request.data, share
        )

    def combine(self) -> bytes:
        signature = self._scheme.combine(
            self.public_key, self.request.data, list(self._shares.values())
        )
        return signature.to_bytes()


class CoinOperation(ShareOperation):
    """Threshold randomness for CKS05."""

    def create_own_share(self) -> bytes:
        share = self._scheme.create_coin_share(self.key_share, self.request.data)
        self._store_own(share)
        return share.to_bytes()

    def _decode(self, payload: bytes):
        return cks05.Cks05CoinShare.from_bytes(payload, self.public_key.group)

    def _verify_decoded(self, share) -> None:
        self._scheme.verify_coin_share(self.public_key, self.request.data, share)

    def combine(self) -> bytes:
        return self._scheme.combine(
            self.public_key, self.request.data, list(self._shares.values())
        )


def make_operation(
    scheme_name: str,
    public_key,
    key_share,
    request: OperationRequest,
) -> ShareOperation:
    """Instantiate the right adapter for (scheme, request kind)."""
    scheme = get_scheme(scheme_name)
    if request.kind == "decrypt":
        if not isinstance(scheme, ThresholdCipher):
            raise ConfigurationError(f"{scheme_name} cannot decrypt")
        return DecryptOperation(scheme, public_key, key_share, request)
    if request.kind == "sign":
        if not isinstance(scheme, ThresholdSignature):
            raise ConfigurationError(f"{scheme_name} cannot sign")
        return SignOperation(scheme, public_key, key_share, request)
    if request.kind == "coin":
        if not isinstance(scheme, ThresholdCoin):
            raise ConfigurationError(f"{scheme_name} cannot toss coins")
        return CoinOperation(scheme, public_key, key_share, request)
    raise ConfigurationError(f"unknown operation kind {request.kind!r}")
