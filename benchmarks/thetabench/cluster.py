"""Launch a Θ-network of separate ``repro.service.daemon`` processes.

The end-to-end half of thetabench measures real daemons over loopback
TCP, one process per node, so the n nodes do not share a GIL.  This
module deals the keys, writes the per-node files, spawns and restarts the
daemons, reads their CPU/RSS from ``/proc``, and always tears them down.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"thetabench needs the repository's sources at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.errors import RpcError  # noqa: E402
from repro.schemes import generate_keys  # noqa: E402
from repro.schemes.keystore import node_keystore  # noqa: E402
from repro.service.client import ThetacryptClient  # noqa: E402
from repro.service.config import make_local_configs  # noqa: E402

PARTIES, THRESHOLD = 4, 1
HOST = "127.0.0.1"
PING_DEADLINE = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: The daemons import ``repro`` from the checkout's ``src``.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def deal(schemes: tuple[str, ...]) -> dict:
    """Trusted-dealer output for ``schemes`` (key id = scheme name)."""
    return {name: generate_keys(name, THRESHOLD, PARTIES) for name in schemes}


def _free_port_block(count: int) -> int:
    """A base such that base+1 .. base+count were all bindable just now.

    The block lies below the kernel's ephemeral range: a listener port
    drawn from inside it can be taken first by the source port of a peer's
    outgoing connection (seen on this host as ``address already in use``
    on one daemon and a self-connected ping that never returned).
    """
    ephemeral_low = int(
        Path("/proc/sys/net/ipv4/ip_local_port_range").read_text().split()[0]
    )
    for _ in range(200):
        base = random.randrange(10000, ephemeral_low - count - 1)
        held = []
        try:
            for offset in range(1, count + 1):
                sock = socket.socket()
                held.append(sock)
                sock.bind((HOST, base + offset))
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
        return base
    raise RuntimeError("no free block of loopback ports found")


def _child_setup(cpu: int) -> None:
    """Runs in the daemon process before exec.

    SIGTERM on the benchmark's death, so a killed run leaves no daemon
    holding the cores.  One CPU per daemon, round-robin: in a deployment a
    node owns its hardware, and on this host the kernel's placement of
    five busy processes on two cores was the largest single source of
    run-to-run spread (``replay_cached`` throughput ranged 33 % without
    the pin and 15 % with it, see README.md).
    """
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass  # a sandbox may forbid it; provenance records the outcome


def warm_page_cache() -> None:
    """One throw-away daemon import, so every boot that is timed finds the
    interpreter and ``repro`` in the page cache whichever workload runs
    first."""
    subprocess.run(
        [sys.executable, "-c", "import repro.service.daemon"],
        env=CHILD_ENV,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _descendants(pids: list[int]) -> list[int]:
    """``pids`` plus every live process whose ancestor is one of them."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # Field 4 (ppid) follows the parenthesised command name.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = set(pids)
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return sorted(tree)


class Cluster:
    """Four daemon processes plus the one client that talks to them."""

    def __init__(self, workdir: Path, material: dict, durable: bool):
        self.workdir = Path(workdir)
        self.daemons: dict[int, subprocess.Popen] = {}
        self.client: ThetacryptClient | None = None
        base = _free_port_block(2 * PARTIES)
        configs = make_local_configs(
            PARTIES, THRESHOLD, base_port=base, rpc_base_port=base + PARTIES, host=HOST
        )
        self.addresses = {c.node_id: (HOST, c.rpc_port) for c in configs}
        for config in configs:
            node_dir = self.workdir / f"node{config.node_id}"
            node_dir.mkdir(parents=True, exist_ok=True)
            if durable:
                config = replace(config, data_dir=str(node_dir / "data"))
            (node_dir / "config.json").write_text(config.to_json())
            (node_dir / "keystore.json").write_text(
                node_keystore(material, config.node_id)
            )

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, node_id: int) -> None:
        node_dir = self.workdir / f"node{node_id}"
        cpus = sorted(os.sched_getaffinity(0))
        with open(node_dir / "daemon.log", "ab") as log:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service.daemon",
                    "--config", str(node_dir / "config.json"),
                    "--keystore", str(node_dir / "keystore.json"),
                ],
                stdout=log,
                stderr=log,
                env=CHILD_ENV,
                preexec_fn=lambda: _child_setup(cpus[(node_id - 1) % len(cpus)]),
            )
        self.daemons[node_id] = process

    async def _wait_ping(self, node_id: int) -> None:
        deadline = time.monotonic() + PING_DEADLINE
        while True:
            try:
                await asyncio.wait_for(self.client.call(node_id, "ping", {}), 2.0)
                return
            except (OSError, RpcError, asyncio.TimeoutError):
                if self.daemons[node_id].poll() is not None:
                    raise RuntimeError(
                        f"daemon {node_id} exited during start-up, see "
                        f"{self.workdir / f'node{node_id}' / 'daemon.log'}"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(f"daemon {node_id} never answered ping")
                await asyncio.sleep(0.02)

    async def start(self) -> float:
        """Spawn every daemon and wait for all pings; returns the moment
        (``time.perf_counter``) the first daemon was spawned."""
        spawned_at = time.perf_counter()
        for node_id in self.addresses:
            self._spawn(node_id)
        # No blind retries: the benchmark counts a refused or failed
        # request as failed instead of hiding it behind a retry.
        self.client = ThetacryptClient(self.addresses, max_retries=0)
        for node_id in self.addresses:
            await self._wait_ping(node_id)
        return spawned_at

    def _terminate(self) -> None:
        """SIGTERM every daemon and wait; raises if any process of the
        cluster (workers a daemon may have forked included) outlives it."""
        tree = self.pids()  # read before the signal: orphans are re-parented
        for process in self.daemons.values():
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.daemons.values():
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        deadline = time.monotonic() + 2.0
        while any(map(_alive, tree)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in tree if _alive(pid)]
        if orphans:
            for pid in orphans:
                os.kill(pid, signal.SIGKILL)
            raise RuntimeError(f"processes outlived their daemons: {orphans}")

    async def restart(self) -> float:
        """SIGTERM every daemon, start them again from the same files (and
        ``data_dir``); returns seconds from SIGTERM to the last ping."""
        started = time.perf_counter()
        await self.client.close()
        self._terminate()
        await self.start()
        return time.perf_counter() - started

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        self._terminate()

    # -- /proc readings ----------------------------------------------------------

    def daemon_cpus(self) -> list[list[int]]:
        """The CPUs each daemon may run on (provenance)."""
        return [sorted(os.sched_getaffinity(p.pid)) for p in self.daemons.values()]

    def pids(self) -> list[int]:
        return _descendants([p.pid for p in self.daemons.values()])

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon process trees, in seconds."""
        ticks = 0
        for pid in self.pids():
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLK_TCK

    def rss_kb(self) -> int:
        """Summed VmRSS of the daemon process trees."""
        total = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
        return total

    def disk_kb(self) -> float:
        """Bytes under the nodes' ``data_dir``s, in KB."""
        total = 0
        for path in self.workdir.glob("node*/data/**/*"):
            if path.is_file():
                total += path.stat().st_size
        return total / 1024


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
