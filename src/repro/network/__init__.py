"""Network layer: P2P and total-order broadcast behind swappable interfaces.

Mirrors §3.6 of the paper: a :class:`~repro.network.manager.NetworkManager`
"sets up the needed components based on the configuration provided at
start-up".  Concrete components:

* :mod:`local` — in-process transport with configurable latency injection
  (the workhorse of integration tests and single-machine demos);
* :mod:`tcp` — asyncio TCP full-mesh transport for real multi-process
  deployments (the original runs libp2p gossip for up to 127 nodes; at
  our sizes every node links to every other);
* :mod:`tob` — a sequencer-based total-order broadcast;
* :mod:`proxy` — P2P/TOB proxy modules that delegate communication to a
  host platform (e.g. a blockchain node).
"""

from .faults import FaultPlan, FaultyNetwork, LinkFaults, Partition
from .interfaces import P2PNetwork, TotalOrderBroadcast
from .local import LocalHub, LocalP2P
from .manager import NetworkManager

__all__ = [
    "FaultPlan",
    "FaultyNetwork",
    "LinkFaults",
    "P2PNetwork",
    "Partition",
    "TotalOrderBroadcast",
    "LocalHub",
    "LocalP2P",
    "NetworkManager",
]
