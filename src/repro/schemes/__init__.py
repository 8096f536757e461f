"""The schemes module: cryptographic core of the Thetacrypt reproduction.

Implements the six threshold schemes of the paper (Table 1):

=========  ===========  ==========  =====================
Scheme     Kind         Hardness    Verification strategy
=========  ===========  ==========  =====================
SH00       signature    RSA         ZKP
KG20       signature    DL          ZKP (interactive, 2 rounds)
BLS04      signature    DL          pairings
SG02       cipher       DL          ZKP
BZ03       cipher       DL          pairings
CKS05      randomness   DL          ZKP
=========  ===========  ==========  =====================

This module is self-contained ("might also be imported as a library directly
by other projects", §3.3): nothing here depends on the core, network, or
service layers.
"""

from .base import (
    SchemeKind,
    ThresholdCipher,
    ThresholdCoin,
    ThresholdScheme,
    ThresholdSignature,
    SCHEME_TABLE,
    get_scheme,
    list_schemes,
)
from .dleq import DleqProof, dleq_prove, dleq_verify
from . import bls04, bz03, cks05, kg20, sg02, sh00
from . import dealing, keystore
from .keygen import generate_keys

__all__ = [
    "SchemeKind",
    "ThresholdScheme",
    "ThresholdCipher",
    "ThresholdSignature",
    "ThresholdCoin",
    "SCHEME_TABLE",
    "get_scheme",
    "list_schemes",
    "DleqProof",
    "dleq_prove",
    "dleq_verify",
    "generate_keys",
    "sg02",
    "bz03",
    "sh00",
    "bls04",
    "kg20",
    "cks05",
    "dealing",
    "keystore",
]
