"""Run a stateless Thetacrypt router as a standalone process.

The front-end entry point of a federated deployment: clients speak the
ordinary JSON-lines RPC protocol to the router exactly as they would to a
node, and the router fans each request out to the threshold group that
owns its key::

    python3 -m repro.router.daemon --topology deployment/topology.json \
                                   --rpc-port 23500

Routers hold no state — run as many as the load needs behind any TCP
load-balancing scheme, and kill/restart them freely: in-flight requests
are retried by the client and absorbed by the groups' idempotent result
caches.  The process serves RPC until SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal

from ..service.server import JsonLinesServer
from ..telemetry import MetricsHttpServer
from .core import Router
from .topology import Topology

logger = logging.getLogger("repro.router")


class RouterDaemon:
    """One router process: a :class:`Router` core behind a listener."""

    def __init__(
        self,
        topology: Topology,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str = "",
        metrics_port: int | None = None,
        name: str = "router",
    ):
        self.router = Router(topology, auth_token=auth_token, name=name)
        # The same wire protocol as a node's ``RpcServer`` (framing, auth,
        # structured errors), dispatching into the router core.
        self.rpc = JsonLinesServer(
            self.router.dispatch,
            host,
            port,
            auth_token,
            self.router.registry,
            log_name="router rpc",
        )
        self._metrics_http: MetricsHttpServer | None = None
        if metrics_port is not None:
            self._metrics_http = MetricsHttpServer(
                self.router.render_metrics, host, metrics_port
            )

    @property
    def rpc_address(self) -> tuple[str, int]:
        return self.rpc.address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    async def start(self) -> None:
        await self.rpc.start()
        if self._metrics_http is not None:
            await self._metrics_http.start()

    async def stop(self) -> None:
        if self._metrics_http is not None:
            await self._metrics_http.stop()
        await self.rpc.stop()
        await self.router.close()


async def run_until_signal(daemon: RouterDaemon) -> None:
    """Start the router and serve until SIGINT/SIGTERM.

    No drain phase on purpose: the router holds no instance state, so
    tearing it down mid-request is exactly the failure the idempotent
    retry path is built for.
    """
    await daemon.start()
    host, port = daemon.rpc_address
    logger.info(
        "router %r up: rpc on %s:%d, %d groups",
        daemon.router.name,
        host,
        port,
        len(daemon.router.topology.groups),
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX platforms
            pass
    await stop.wait()
    logger.info("shutting down router %r", daemon.router.name)
    await daemon.stop()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run one Thetacrypt router")
    parser.add_argument(
        "--topology", required=True, help="federation Topology JSON file"
    )
    parser.add_argument("--rpc-host", default="127.0.0.1")
    parser.add_argument("--rpc-port", type=int, default=0)
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="plain-HTTP Prometheus scrape port (omit to disable)",
    )
    parser.add_argument("--auth-token", default="")
    parser.add_argument("--name", default="router")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    with open(args.topology) as handle:
        topology = Topology.from_json(handle.read())
    daemon = RouterDaemon(
        topology,
        host=args.rpc_host,
        port=args.rpc_port,
        auth_token=args.auth_token,
        metrics_port=args.metrics_port,
        name=args.name,
    )
    asyncio.run(run_until_signal(daemon))


if __name__ == "__main__":
    main()
