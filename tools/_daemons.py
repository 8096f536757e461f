"""What the daemon-spawning smoke gates share: the child environment,
dealing keys, starting a daemon with its output in a log file, waiting for
it to answer ``ping``, and stopping the lot.

Imported as a sibling module by ``tools/*_smoke.py`` (the script's own
directory is on ``sys.path``); importing it puts ``src`` on the path.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.errors import RpcError  # noqa: E402
from repro.service.client import ThetacryptClient  # noqa: E402

#: Environment for child processes: the daemons import ``repro`` from src.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def deal_keys(*args: str) -> None:
    """Run ``tools/deal_keys.py`` with ``args``."""
    deal = subprocess.run(
        [sys.executable, str(REPO / "tools" / "deal_keys.py"), *args],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert deal.returncode == 0, deal.stderr


def spawn_daemon(node_dir: Path, *flags: str) -> subprocess.Popen:
    """One node daemon on ``node_dir``'s dealt config and keystore, its
    stdout and stderr appended to ``node_dir/daemon.log`` (kept on the
    returned process as ``.log`` for :func:`wait_for_ping`)."""
    log = node_dir / "daemon.log"
    with open(log, "ab") as sink:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.daemon",
                "--config", str(node_dir / "config.json"),
                "--keystore", str(node_dir / "keystore.json"),
                *flags,
            ],
            stdout=sink,
            stderr=sink,
            env=CHILD_ENV,
        )
    process.log = log
    return process


async def wait_for_ping(
    client: ThetacryptClient, node_id: int, daemon: subprocess.Popen
) -> dict:
    """The daemon's first ``ping`` answer; fails at once, with the end of
    its log, if the process died instead of coming up."""
    for _ in range(150):
        try:
            return await client.call(node_id, "ping", {})
        except (OSError, RpcError):
            if daemon.poll() is not None:
                tail = daemon.log.read_text(errors="replace")[-2000:]
                raise AssertionError(
                    f"daemon {node_id} exited during start-up, see "
                    f"{daemon.log}:\n{tail}"
                )
            await asyncio.sleep(0.2)
    raise AssertionError(f"daemon {node_id} never answered ping, see {daemon.log}")


def stop_daemons(
    daemons: list[subprocess.Popen], timeout: float = 30.0
) -> list[subprocess.Popen]:
    """SIGTERM every live process and wait for all of them within one
    ``timeout``; the ones that had to be SIGKILLed are returned."""
    for daemon in daemons:
        if daemon.poll() is None:
            daemon.terminate()
    deadline = time.monotonic() + timeout
    stuck = []
    for daemon in daemons:
        try:
            daemon.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            daemon.kill()
            stuck.append(daemon)
    return stuck
