"""Run a Thetacrypt node as a standalone process.

The real-deployment entry point: one process per Θ-network member, TCP
transport between them, keys loaded from a keystore file produced by
``tools/deal_keys.py``::

    python3 -m repro.service.daemon --config node1/config.json \
                                    --keystore node1/keystore.json

The process serves RPC until SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
import sys
from pathlib import Path

from ..errors import ThetacryptError
from ..schemes.keystore import keystore_from_json
from .config import NodeConfig
from .node import DRAIN_TIMEOUT, ThetacryptNode

logger = logging.getLogger("repro.daemon")


def load_node(config_path: str, keystore_path: str) -> ThetacryptNode:
    """Build a node from its on-disk configuration and keystore.

    With a ``data_dir`` in the config, the node may already hold (durable)
    keys from a previous life; installing the dealer output again is a
    no-op (``install_key`` keeps the held share of the same key, which
    after a ``refresh_key`` is no longer the dealt one).
    """
    with open(config_path) as handle:
        config = NodeConfig.from_json(handle.read())
    node = ThetacryptNode(config)
    shares = keystore_from_json(Path(keystore_path).read_bytes(), keystore_path)
    for key_id, (scheme, share) in shares.items():
        node.install_key(key_id, scheme, share.public, share)
    return node


async def run_until_signal(node: ThetacryptNode) -> None:
    """Start the node and serve until SIGINT/SIGTERM.

    Graceful shutdown: on signal the daemon first *drains* — waits up to
    :data:`DRAIN_TIMEOUT` seconds for in-flight instances to terminate (their
    results then land in the durable cache and the journal carries their
    terminal records) — and only then tears down RPC, transports, and the
    storage handles.  Instances still pending when the budget runs out are
    recovered as ``crash_recovery`` aborts on the next boot.
    """
    await node.start()
    host, port = node.rpc_address
    logger.info(
        "node %d up: rpc on %s:%d, %d keys installed",
        node.config.node_id,
        host,
        port,
        len(node.keys),
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX platforms
            pass
    await stop.wait()
    logger.info(
        "shutting down node %d (draining up to %.1fs)",
        node.config.node_id,
        DRAIN_TIMEOUT,
    )
    drained = await node.drain()
    if not drained:
        logger.warning(
            "node %d: %d instances still in flight after drain timeout",
            node.config.node_id,
            node.instances.active_count,
        )
    await node.stop()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run one Thetacrypt node")
    parser.add_argument("--config", required=True, help="NodeConfig JSON file")
    parser.add_argument("--keystore", required=True, help="keystore JSON file")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        node = load_node(args.config, args.keystore)
    except (ThetacryptError, OSError) as exc:  # a bad file: say which, no traceback
        sys.exit(f"cannot start node: {type(exc).__name__}: {exc}")
    asyncio.run(run_until_signal(node))


if __name__ == "__main__":
    main()
