"""Protocol implementations against the Threshold Round Interface.

* :mod:`noninteractive` — the generic one-round protocol covering the five
  non-interactive schemes (partial result → t+1 valid shares → combine);
* :mod:`frost` — the two-round KG20/FROST signing protocol (with the
  optional precomputation mode);
* :mod:`dealing` — distributed key generation and proactive refresh, one
  Feldman dealing round.
"""

from .operations import OperationRequest, make_operation
from .noninteractive import NonInteractiveProtocol
from .frost import FrostProtocol, FrostPrecomputationPool, FrostPrecomputeProtocol
from .dealing import DealProtocol

__all__ = [
    "OperationRequest",
    "make_operation",
    "NonInteractiveProtocol",
    "FrostProtocol",
    "FrostPrecomputationPool",
    "FrostPrecomputeProtocol",
    "DealProtocol",
]
