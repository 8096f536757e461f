"""Orchestration module: instance manager, protocol executor, key manager.

Implements Fig. 3 of the paper: the *instance manager* tracks protocol
instances, each driven by a generic *protocol executor* (a state machine
over the TRI), with key material served by the *key manager*.
"""

from .instance import InstanceRecord, InstanceStatus
from .keymanager import KeyEntry, KeyManager
from .executor import ProtocolExecutor
from .manager import InstanceManager, derive_instance_id

__all__ = [
    "InstanceRecord",
    "InstanceStatus",
    "KeyEntry",
    "KeyManager",
    "ProtocolExecutor",
    "InstanceManager",
    "derive_instance_id",
]
