"""The simulator CLI and the node monitoring endpoint."""

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.service.cluster import LocalCluster

# The subprocess needs to import ``repro`` like this process does; derive the
# source root from the imported package instead of hardcoding a layout.
_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)


@pytest.mark.integration
class TestSimCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.sim.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                "REPRO_SIM_MAX_REQUESTS": "20",
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": os.pathsep.join(
                    [_SRC_ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]
                ),
            },
        )

    def test_capacity_csv(self):
        result = self._run(
            "capacity", "--deployment", "DO-7-L", "--scheme", "sg02",
            "--duration", "2",
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("scheme,deployment,rate")
        assert len(lines) == 1 + 11  # header + rates 1..1024
        assert lines[1].startswith("sg02,DO-7-L,1")

    def test_knee_csv(self):
        result = self._run(
            "knee", "--deployment", "DO-7-L", "--scheme", "bls04",
            "--duration", "2",
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.strip().splitlines()) == 2

    def test_steady_requires_rate(self):
        result = self._run("steady", "--deployment", "DO-7-L", "--scheme", "sg02")
        assert result.returncode != 0

    def test_payload_csv(self):
        result = self._run(
            "payload", "--deployment", "DO-7-L", "--scheme", "cks05",
            "--rate", "4", "--duration", "2",
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.strip().splitlines()) == 1 + 5  # 5 sizes


class TestNodeStats:
    def test_stats_reflect_work(self, keys_cks05):
        async def scenario():
            async with LocalCluster({"coin": keys_cks05}) as cluster:
                client = cluster.client
                before = await client.call(1, "node_stats", {})
                assert before["instances"] == {}
                assert before["keys"] == 1

                for round_number in range(3):
                    await client.flip_coin("coin", b"r%d" % round_number)

                after = await client.call(1, "node_stats", {})
                assert after["instances"].get("finished", 0) == 3
                assert after["latency"]["count"] == 3
                assert after["latency"]["p50"] > 0
                assert after["node_id"] == 1

        asyncio.run(scenario())

    def test_malformed_rpc_line_gets_error_response(self):
        # A 2-node network; send raw garbage on the RPC socket.
        async def scenario2():
            import json

            async with LocalCluster({}, parties=2) as cluster:
                host, port = cluster.nodes[0].rpc_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert "error" in response
                # The connection survives for the next (valid) request.
                writer.write(
                    json.dumps({"id": 1, "method": "ping", "params": {}}).encode()
                    + b"\n"
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["result"]["node_id"] == 1
                writer.close()

        asyncio.run(scenario2())
