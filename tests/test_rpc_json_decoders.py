"""Hostile request lines for the node's JSON-lines RPC server.

The RPC socket is a trust boundary: whatever arrives on one line must be
answered on that connection with a result or a structured error, carrying
the request's ``id`` when the line parsed.  A malformed line is the
caller's fault: ``error_reason: "bad_request"``, counted as an ``error``,
never as ``internal`` (which ``docs/observability.md`` keeps for failures
of the node itself) and never with a logged traceback.  The table is
frozen (a row that changes sides is a behaviour change to be argued); the
property throws truncations, bit flips and random lines at a live node.
Same shape as ``tests/test_coin_frost_decoders.py``, driven through the
socket of a running four-node network.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.cluster import LocalCluster
from repro.service.server import RPC_LINE_LIMIT
from repro.telemetry import parse_text
from tests.test_scheme_sh00 import _mutants


def _line(**request) -> bytes:
    return json.dumps(request).encode("utf-8")


def _call(request_id, method, **params) -> bytes:
    return _line(id=request_id, method=method, params=params)


_PING = _call(1, "ping")
_STATUS = _call(5, "status", instance_id="ab")
_BAD = "bad_request"

#: (case, line without its newline, id the response carries, outcome).  The
#: outcome ``ok`` is a result; a string is the ``error_reason``; ``None`` is
#: a domain error with no structured reason.
_TABLE = [
    ("ping", _PING, 1, "ok"),
    ("list_keys", _call(2, "list_keys"), 2, "ok"),
    ("string id echoed", _line(id="a", method="ping", params={}), "a", "ok"),
    ("unknown method", _call(3, "nope"), 3, None),
    ("unknown key", _call(4, "flip_coin", key_id="x", data=""), 4, None),
    ("unknown instance", _STATUS, 5, None),
    ("invalid JSON", b"this is not json", None, _BAD),
    ("empty line", b"", None, _BAD),
    ("array", b"[1]", None, _BAD),
    ("number", b"42", None, _BAD),
    ("string", b'"ping"', None, _BAD),
    ("null", b"null", None, _BAD),
    ("nested past the recursion limit", b"[" * 100_000, None, _BAD),
    ("integer id of 5000 digits", b'{"id": ' + b"9" * 5000 + b"}", None, _BAD),
    ("not UTF-8", b'{"id": 6, "method": "ping", "params": {"x": "\xff"}}', None, _BAD),
    ("UTF-8 byte-order mark", b"\xef\xbb\xbf" + _PING, None, _BAD),
    ("UTF-16 with a byte-order mark", _PING.decode().encode("utf-16"), None, _BAD),
    ("UTF-32 with a byte-order mark", _PING.decode().encode("utf-32"), None, _BAD),
    ("method missing", _line(id=7, params={}), 7, _BAD),
    ("method not a string", _call(8, 5), 8, _BAD),
    ("method a lone surrogate", _call(9, "\ud800"), 9, _BAD),
    ("params missing", _line(id=10, method="ping"), 10, _BAD),
    ("params an array", _line(id=11, method="ping", params=[]), 11, _BAD),
    ("params a string", _line(id=12, method="ping", params="{}"), 12, _BAD),
    ("key_id missing", _call(13, "flip_coin", data="aa"), 13, _BAD),
    ("key_id a number", _call(14, "flip_coin", key_id=1, data=""), 14, _BAD),
    ("key_id a lone surrogate", _call(15, "run_dkg", key_id="\ud800"), 15, _BAD),
    ("data missing", _call(16, "flip_coin", key_id="coin"), 16, _BAD),
    ("data a number", _call(17, "flip_coin", key_id="coin", data=5), 17, _BAD),
    ("data a list", _call(18, "sign", key_id="coin", data=["aa"]), 18, _BAD),
    ("data not hex", _call(19, "flip_coin", key_id="coin", data="zz"), 19, _BAD),
    ("label a number", _call(20, "decrypt", key_id="coin", data="", label=0), 20, _BAD),
    ("signature not hex",
     _call(21, "verify_signature", key_id="coin", data="", signature="g"), 21, _BAD),
    ("count a string", _call(22, "precompute", key_id="coin", count="x"), 22, _BAD),
    ("count a boolean", _call(23, "precompute", key_id="coin", count=True), 23, _BAD),
    ("count negative", _call(24, "precompute", key_id="coin", count=-1), 24, _BAD),
    ("count past 32 bits",
     _call(25, "precompute", key_id="coin", count=1 << 32), 25, _BAD),
    # ``items`` is no parameter of ``precompute``: these lines lack ``count``.
    ("items a string", _call(26, "precompute", key_id="coin", items="aa"), 26, _BAD),
    ("items holding a number",
     _call(27, "precompute", key_id="coin", items=[1]), 27, _BAD),
    ("instance_id a number", _call(28, "status", instance_id=1), 28, _BAD),
    ("dkg scheme a number", _call(29, "run_dkg", key_id="new", scheme=5), 29, _BAD),
]

#: Every method the server dispatches, each its own metric label.
_SERVED = (
    "decrypt", "sign", "flip_coin", "run_dkg", "refresh_key", "precompute",
    "status", "encrypt", "verify_signature", "list_keys", "node_stats",
    "metrics", "ping",
)

_OVERSIZED = b"x" * (RPC_LINE_LIMIT + 1)

#: Lines the property mutates.  None starts a protocol instance: a request
#: sent to one node alone would wait for peers that never saw it.
_MUTATED = [
    _PING,
    _STATUS,
    _call(30, "encrypt", key_id="coin", data="aa", label=""),
    _call(31, "precompute", key_id="coin", count=2),
]


class _LiveNetwork:
    """A four-node network serving RPC from an event loop on a background
    thread, so each test talks to node 1 through a plain blocking socket."""

    def __init__(self, keys):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()
        self._cluster = LocalCluster({"coin": keys})
        self.nodes = self.run(self._cluster.__aenter__()).nodes
        self.address = self.nodes[0].rpc_address

    def run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60)

    def requests(self, outcome: str, method: str | None = None) -> float:
        """Node 1's ``repro_rpc_requests_total`` for ``outcome``."""

        async def read():
            family = self.nodes[0].registry.get("repro_rpc_requests_total")
            total = 0.0
            for child in family.children():
                labels = dict(child.label_items)
                if labels["outcome"] == outcome and method in (None, labels["method"]):
                    total += child.value
            return total

        return self.run(read())

    def stop(self):
        async def stop_all():
            await self._cluster.__aexit__(None, None, None)
            # Connection handlers outlive the listener; end them here.
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        self.run(stop_all())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def network(keys_cks05):
    live = _LiveNetwork(keys_cks05)
    yield live
    live.stop()


class _Connection:
    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=30)
        self._lines = self._sock.makefile("rb")

    def send(self, line: bytes) -> dict | None:
        """One line out, one response back (None once the server closed)."""
        self._sock.sendall(line + b"\n")
        reply = self._lines.readline()
        return json.loads(reply) if reply else None

    def close(self):
        self._lines.close()
        self._sock.close()


def _decoded(line: bytes):
    """What ``line`` is as strict UTF-8 JSON, or None."""
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return None


class TestHostileRpcLines:
    @pytest.mark.parametrize(
        "line,request_id,outcome",
        [row[1:] for row in _TABLE],
        ids=[row[0] for row in _TABLE],
    )
    def test_accept_reject_table(self, network, line, request_id, outcome):
        connection = _Connection(network.address)
        try:
            response = connection.send(line)
            assert response["id"] == request_id
            if outcome == "ok":
                assert "result" in response, response
            else:
                assert not response["error"].startswith("internal error"), response
                assert response.get("error_reason") == outcome, response
            # The connection still serves the next request.
            assert connection.send(_PING)["result"] == {"node_id": 1}
        finally:
            connection.close()
        assert network.requests("internal") == 0

    def test_oversized_line_is_answered_counted_and_closed(self, network):
        before = network.requests("error", "<unparsed>")
        connection = _Connection(network.address)
        try:
            response = connection.send(_OVERSIZED)
            assert response["id"] is None
            assert response["error_reason"] == "bad_request"
            assert str(RPC_LINE_LIMIT) in response["error"]
            # The framing is lost: the server hangs up.
            assert connection.send(_PING) is None
        finally:
            connection.close()
        assert network.requests("error", "<unparsed>") == before + 1
        assert network.requests("internal") == 0

    def test_unknown_methods_share_one_metric_label(self, network):
        """300 invented method names leave the scrape's ``method`` label
        within the served methods plus ``<unknown>`` and ``<unparsed>``."""
        connection = _Connection(network.address)
        try:
            for method in _SERVED:  # each is dispatched, not "unknown method"
                response = connection.send(_call(0, method))
                assert "unknown method" not in response.get("error", ""), response
            for i in range(300):
                response = connection.send(_call(i, f"invented-{i}"))
                assert response["error"] == f"unknown method 'invented-{i}'"
            connection.send(b"not json")
            text = connection.send(_call(1, "metrics"))["result"]["text"]
        finally:
            connection.close()
        methods = {
            dict(labels)["method"]
            for name, labels in parse_text(text)
            if name.startswith(("repro_rpc_requests_total", "repro_rpc_latency"))
        }
        assert len(methods) <= len(_SERVED) + 2, sorted(methods)
        assert {"<unknown>", "<unparsed>"} <= methods
        assert network.requests("error", "<unknown>") >= 300

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutants_get_a_result_or_a_structured_error(self, network, data):
        original = data.draw(st.sampled_from(_MUTATED))
        # A newline inside the mutant would make it two requests.
        line = data.draw(_mutants(original)).replace(b"\n", b" ")
        connection = _Connection(network.address)
        try:
            response = connection.send(line)
            request = _decoded(line)
            if type(request) is not dict:
                request = {}
            assert json.dumps(response["id"]) == json.dumps(request.get("id"))
            if "result" not in response:
                assert not response["error"].startswith("internal error"), response
                method, params = request.get("method"), request.get("params")
                if type(method) is not str or type(params) is not dict:
                    assert response["error_reason"] == "bad_request", response
            assert connection.send(_PING)["result"] == {"node_id": 1}
        finally:
            connection.close()
        assert network.requests("internal") == 0
