"""Durable node state: atomic snapshots, the write-ahead log and the
outcome table (docs/robustness.md, "Durability & recovery").

Everything under ``NodeConfig.data_dir`` flows through this package::

    data_dir/
      keystore.bin   # CRC-checked snapshot of this node's key shares,
                     # written by core.orchestration.KeyManager
      results/       # segmented WAL backing the outcome table: instance
                     # lifecycle and finalized results, one log
"""

from .atomic import (
    atomic_write_bytes,
    fsync_directory,
    pack_record,
    read_versioned,
    unpack_record,
    write_versioned,
)
from .results import DurableResultCache, Outcome
from .wal import WriteAheadLog

__all__ = [
    "DurableResultCache",
    "Outcome",
    "WriteAheadLog",
    "atomic_write_bytes",
    "fsync_directory",
    "pack_record",
    "read_versioned",
    "unpack_record",
    "write_versioned",
]
