"""Exception hierarchy for the repro (Thetacrypt reproduction) library.

Every error raised by the library derives from :class:`ThetacryptError` so
applications can install a single catch-all handler around service calls.
"""

from __future__ import annotations


class ThetacryptError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ThetacryptError):
    """A node, deployment, or scheme was configured inconsistently."""


class SerializationError(ThetacryptError):
    """Raised when encoding or decoding a wire object fails."""


class CryptoError(ThetacryptError):
    """Base class for cryptographic failures."""


class InvalidShareError(CryptoError):
    """A partial result (decryption/signature/coin share) failed verification.

    ``culprits`` names the party ids whose shares failed when the check
    covered shares other than the one that triggered it (a verification
    run after a failed combine); empty means "the share at hand".
    """

    def __init__(self, message: str = "", culprits: tuple[int, ...] = ()):
        super().__init__(message)
        self.culprits = tuple(culprits)


class InvalidCiphertextError(CryptoError):
    """A ciphertext failed its validity check (CCA protection)."""


class InvalidSignatureError(CryptoError):
    """An assembled or partial signature failed verification."""


class InvalidProofError(InvalidShareError):
    """A zero-knowledge proof failed verification.

    Subclasses :class:`InvalidShareError` because every proof in this
    library authenticates a partial result (a decryption, signature, or coin
    share) — callers rejecting bad shares catch both uniformly.
    """


class ThresholdNotReachedError(CryptoError):
    """Fewer valid shares were supplied than the threshold requires."""


class DuplicateShareError(CryptoError):
    """Two shares with the same participant id were supplied to a combiner."""


class KeyManagementError(ThetacryptError):
    """A key id was unknown, duplicated, or incompatible with the request."""


class ProtocolError(ThetacryptError):
    """A threshold protocol instance violated the TRI state machine."""


class ProtocolAbortedError(ProtocolError):
    """A protocol instance aborted (e.g. FROST misbehaviour, DKG complaint).

    ``reason`` is a structured, machine-readable abort classification
    (``timeout`` / ``insufficient_shares`` / ``byzantine_detected`` /
    ``aborted`` / ``internal``) surfaced through ``stats()`` and the RPC
    error alongside the human-readable message.
    """

    def __init__(self, message: str = "", reason: str = "aborted"):
        super().__init__(message)
        self.reason = reason


class NetworkError(ThetacryptError):
    """A network layer component failed to deliver or receive a message."""


class StorageError(ThetacryptError):
    """Durable node state (keystore, journal, result cache) failed an
    integrity check or could not be read/written."""


class WalCorruptionError(StorageError):
    """A write-ahead-log record failed its checksum *mid-stream*.

    A torn **final** record is the expected signature of a crash during an
    append and is silently tolerated (replay stops there and the tail is
    truncated); a bad record with more data behind it means the file was
    damaged after the fact, which recovery must refuse to paper over.
    """


class RpcError(ThetacryptError):
    """The service layer rejected or failed an RPC call.

    ``reason`` carries the structured classification when there is one
    (e.g. ``overloaded`` for load-shed submissions, ``bad_request`` for a
    malformed request line) and ``retry_after`` a server-suggested backoff
    in seconds.  Both travel through the RPC error response next to the
    human-readable message; other attributes do not survive the wire (see
    ``service/server.py``).
    """

    def __init__(
        self,
        message: str = "",
        reason: str | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        if reason is not None:
            self.reason = reason
        if retry_after is not None:
            self.retry_after = retry_after


class SimulationError(ThetacryptError):
    """The discrete-event simulator was driven into an invalid state."""
