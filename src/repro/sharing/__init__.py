"""Secret sharing: Shamir over fields and integers, Feldman VSS."""

from .shamir import ShamirShare, share_secret, reconstruct_secret
from .integer_shamir import share_integer_secret
from .feldman import FeldmanCommitment, feldman_share

__all__ = [
    "ShamirShare",
    "share_secret",
    "reconstruct_secret",
    "share_integer_secret",
    "FeldmanCommitment",
    "feldman_share",
]
