"""Hostile lines on the proxy links: every line is delivered or dropped.

A proxy and its host bridge speak JSON lines (``repro.network.proxy``).
Three readers parse them: the bridge reads requests, the P2P and TOB
proxies read events.  A line that is not a JSON object carrying its kind's
fields with their types must be dropped, and the reader must read on: one
bad line must never end a link.  Each case below is followed by a good
probe line, which must still arrive.  The tables are frozen (a row that
changes sides is a behaviour change to be argued); the properties throw
arbitrary lines at the same readers.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import proxy as proxy_module
from repro.network.local import LocalHub
from repro.network.proxy import HostPlatformBridge, P2PProxy, TobProxy, _listen

_PROBE = b"probe"


def _line(obj) -> bytes:
    return json.dumps(obj).encode() + b"\n"


def _send(recipient=2, data=b"x".hex()) -> bytes:
    return _line({"method": "p2p_send", "recipient": recipient, "data": data})


#: (case, request line, what node 2 receives from it: a payload or None).
_REQUEST_TABLE = [
    ("p2p_send", _send(), b"x"),
    ("p2p_send, empty data", _send(data=""), b""),
    ("p2p_broadcast", _line({"method": "p2p_broadcast", "data": "00ff"}), b"\x00\xff"),
    ("extra fields", _line({"method": "p2p_send", "recipient": 2, "data": "78",
                            "more": [1]}), b"x"),
    ("attach", _line({"method": "attach", "node": 1}), None),
    ("attach_tob without a TOB", _line({"method": "attach_tob", "node": 1}), None),
    ("tob_submit without a TOB", _line({"method": "tob_submit", "data": "78"}), None),
    ("a list", b"[1]\n", None),
    ("not JSON", b"{not json\n", None),
    ("empty line", b"\n", None),
    ("invalid UTF-8", b"\xff\xfe\n", None),
    ("nested 10^4 deep", b"[" * 10_000 + b"\n", None),
    ("a string", b'"p2p_send"\n', None),
    ("method missing", _line({"recipient": 2, "data": "78"}), None),
    ("unknown method", _line({"method": "shutdown"}), None),
    ("method a list", _line({"method": ["p2p_send"], "data": "78"}), None),
    ("data not hex", _send(data="zz"), None),
    ("data odd length", _send(data="787"), None),
    ("data a number", _send(data=5), None),
    ("data missing", _line({"method": "p2p_send", "recipient": 2}), None),
    ("recipient missing", _line({"method": "p2p_send", "data": "78"}), None),
    ("recipient a string", _send(recipient="2"), None),
    ("recipient true", _send(recipient=True), None),
    ("recipient 2.0", _send(recipient=2.0), None),
    ("recipient unknown", _send(recipient=9), None),
    ("recipient itself", _send(recipient=1), None),
    ("attach without node", _line({"method": "attach"}), None),
]


def _event(kind="p2p", sender=1, data=b"x".hex()) -> bytes:
    return _line({"event": kind, "sender": sender, "data": data})


#: (case, event line, what the P2P proxy hands its handler, or None).
_EVENT_TABLE = [
    ("p2p event", _event(), (1, b"x")),
    ("empty data", _event(data=""), (1, b"")),
    ("extra fields", _line({"event": "p2p", "sender": 3, "data": "78", "x": 1}),
     (3, b"x")),
    ("tob event", _event(kind="tob"), None),
    ("unknown event", _event(kind="gossip"), None),
    ("data missing", _line({"event": "p2p", "sender": 1}), None),
    ("sender missing", _line({"event": "p2p", "data": "78"}), None),
    ("event missing", _line({"sender": 1, "data": "78"}), None),
    ("data not hex", _event(data="zz"), None),
    ("data a list", _event(data=["78"]), None),
    ("sender a string", _event(sender="1"), None),
    ("sender false", _event(sender=False), None),
    ("a list", b"[1]\n", None),
    ("not JSON", b"{not json\n", None),
    ("invalid UTF-8", b"\xff\n", None),
    ("nested 10^4 deep", b"{\"a\":" * 10_000 + b"\n", None),
]


class _Writer:
    """Stands in for an attached proxy's stream writer."""

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        pass


def _reader(*lines: bytes) -> asyncio.StreamReader:
    """A reader with a proxy link's line limit, holding ``lines``."""
    reader = asyncio.StreamReader(limit=proxy_module.LINE_LIMIT)
    reader.feed_data(b"".join(lines))
    reader.feed_eof()
    return reader


def _through_the_bridge(*lines: bytes) -> list[bytes]:
    """What node 2 receives once bridge 1 has read ``lines`` to EOF."""

    async def scenario():
        hub = LocalHub()
        received = []

        async def handler(sender, data):
            received.append(data)

        hub.endpoint(2).set_handler(handler)
        bridge = HostPlatformBridge("127.0.0.1", 0, hub.endpoint(1))
        await bridge._client_loop(_reader(*lines), _Writer())  # returns at EOF
        await hub.drain()
        return received

    return asyncio.run(scenario())


def _through_a_proxy(proxy, kind: str, *lines: bytes) -> list[tuple[int, bytes]]:
    """What ``proxy``'s handler receives once its reader has read ``lines``."""
    received = []

    async def handler(sender, data):
        received.append((sender, data))

    async def scenario():
        await _listen(_reader(*lines), kind, proxy)  # returns at EOF

    proxy.set_handler(handler)
    asyncio.run(scenario())
    return received


_PROBE_REQUEST = _send(data=_PROBE.hex())
_PROBE_EVENT = _event(kind="p2p", sender=2, data=_PROBE.hex())


class TestBridgeRequests:
    @pytest.mark.parametrize(
        "line,expected",
        [row[1:] for row in _REQUEST_TABLE],
        ids=[row[0] for row in _REQUEST_TABLE],
    )
    def test_accept_reject_table(self, line, expected):
        delivered = [] if expected is None else [expected]
        assert _through_the_bridge(line, _PROBE_REQUEST) == delivered + [_PROBE]

    def test_a_line_over_the_reader_limit_is_dropped(self):
        """A 64 KiB frame is a 128 KiB line, past asyncio's default limit
        of 64 KiB but far inside a link's, which fits any TCP frame."""
        long = _send(data="78" * (1 << 16))
        assert _through_the_bridge(long, _PROBE_REQUEST) == [b"x" * (1 << 16), _PROBE]

    def test_a_line_over_a_small_limit_is_dropped(self, monkeypatch):
        """Past the link's limit (made small here), a line is dropped on
        both kinds of reader and the next line still arrives."""
        monkeypatch.setattr(proxy_module, "LINE_LIMIT", 1024)
        long = _send(data="78" * 1024)
        assert _through_the_bridge(long, _PROBE_REQUEST) == [_PROBE]
        proxy = P2PProxy(1, "127.0.0.1", 0, peer_count=3)
        long = _event(data="78" * 1024)
        assert _through_a_proxy(proxy, "p2p", long, _PROBE_EVENT) == [(2, _PROBE)]

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.binary(max_size=80), max_size=4))
    def test_arbitrary_lines_never_end_the_reader(self, lines):
        lines = [line.replace(b"\n", b"") + b"\n" for line in lines]
        assert _through_the_bridge(*lines, _PROBE_REQUEST)[-1] == _PROBE


class TestProxyEvents:
    @pytest.mark.parametrize(
        "line,expected",
        [row[1:] for row in _EVENT_TABLE],
        ids=[row[0] for row in _EVENT_TABLE],
    )
    def test_accept_reject_table(self, line, expected):
        delivered = [] if expected is None else [expected]
        proxy = P2PProxy(1, "127.0.0.1", 0, peer_count=3)
        assert _through_a_proxy(proxy, "p2p", line, _PROBE_EVENT) == delivered + [
            (2, _PROBE)
        ]

    def test_tob_proxy_reads_tob_events_only(self):
        proxy = TobProxy(1, "127.0.0.1", 0)
        lines = (_event(kind="p2p"), _event(kind="tob", data="zz"), _event(kind="tob"))
        assert _through_a_proxy(proxy, "tob", *lines) == [(1, b"x")]

    @settings(max_examples=200, deadline=None)
    @given(
        objects=st.lists(
            st.dictionaries(
                st.sampled_from(["event", "sender", "data", "x"]),
                st.one_of(
                    st.sampled_from(["p2p", "tob", "78", "zz", ""]),
                    st.integers(-2, 5), st.booleans(), st.none(), st.floats(),
                    st.lists(st.integers(), max_size=2),
                ),
            ),
            max_size=4,
        )
    )
    def test_arbitrary_event_objects_never_end_the_reader(self, objects):
        proxy = P2PProxy(1, "127.0.0.1", 0, peer_count=3)
        lines = [json.dumps(obj).encode() + b"\n" for obj in objects]
        expected = [
            (obj["sender"], bytes.fromhex(obj["data"]))
            for obj in objects
            if obj.get("event") == "p2p"
            and type(obj.get("sender")) is int
            and obj.get("data") in ("78", "")
        ]
        received = _through_a_proxy(proxy, "p2p", *lines, _PROBE_EVENT)
        assert received == expected + [(2, _PROBE)]


@pytest.mark.integration
def test_bad_lines_on_live_links_leave_both_links_open():
    """Over real sockets: the bridge reads a bad request on proxy 1's link
    and proxy 2 reads a bad event on its own; both links carry the next
    message."""

    async def scenario():
        hub = LocalHub()
        bridges = {
            i: HostPlatformBridge("127.0.0.1", 19640 + i, hub.endpoint(i))
            for i in (1, 2)
        }
        for bridge in bridges.values():
            await bridge.start()
        proxies = {
            i: P2PProxy(i, "127.0.0.1", 19640 + i, peer_count=2) for i in (1, 2)
        }
        received = {i: [] for i in proxies}
        for i, proxy in proxies.items():
            async def handler(sender, data, i=i):
                received[i].append((sender, data))

            proxy.set_handler(handler)
            await proxy.start()
        try:
            await asyncio.sleep(0.1)  # let both attach lines arrive
            proxies[1]._writer.write(b"[1]\n{not json\n" + _send(data="zz"))
            (writer,) = bridges[2]._p2p_clients
            writer.write(_line({"event": "p2p", "sender": 1}))
            await proxies[1].send(2, b"after the bad lines")
            await asyncio.sleep(0.2)
            assert received[2] == [(1, b"after the bad lines")]
        finally:
            for proxy in proxies.values():
                await proxy.stop()
            for bridge in bridges.values():
                await bridge.stop()

    asyncio.run(scenario())
