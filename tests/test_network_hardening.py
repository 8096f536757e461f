"""Regression tests for the transport/executor robustness work.

Pins down the hardened behaviours the chaos suite relies on:

* ``backoff_delay`` is exponential-with-jitter inside documented bounds,
* a TCP send that fails while the peer is down lands on the resend queue
  (``repro_net_send_failures``) and is delivered after the peer restarts —
  no silent drop,
* one bad frame from a peer is dropped and counted, and the link reads on;
  only a length header over the frame limit closes the connection,
* the round-progress watchdog re-broadcasts once before the timeout, and
* an executor timeout releases every resource: no leaked asyncio tasks,
  no pinned backlog, an empty inbox.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Channel, ProtocolMessage
from repro.core.orchestration import InstanceManager
from repro.core.protocols import (
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.errors import ProtocolAbortedError
from repro.network.manager import _TAG_PROTOCOL, _TAG_TOB, NetworkManager
from repro.network.tcp import _MAX_FRAME, BACKOFF_CAP, TcpP2P, backoff_delay
from repro.network.tob import _ORDERED, _SUBMIT
from repro.serialization import encode_bytes, encode_int
from repro.telemetry import default_registry

_PORT_A = 19941
_PORT_B = 19942


class TestBackoff:
    def test_exponential_envelope_with_jitter(self):
        rng = random.Random(1234)
        base, cap = 0.05, 2.0
        for attempt in range(12):
            ceiling = min(cap, base * (2**attempt))
            for _ in range(50):
                delay = backoff_delay(attempt, rng, base, cap)
                assert ceiling * 0.5 <= delay <= ceiling

    def test_grows_then_saturates_at_cap(self):
        rng = random.Random(7)
        maxima = [
            max(backoff_delay(a, rng, 0.05, 2.0) for _ in range(200))
            for a in range(10)
        ]
        assert maxima[0] < maxima[3] < maxima[6]  # exponential growth
        assert all(m <= 2.0 for m in maxima)  # never exceeds the cap
        assert maxima[9] > 2.0 * 0.9  # cap actually reached

    def test_jitter_spreads_retries(self):
        rng = random.Random(99)
        delays = {backoff_delay(4, rng, 0.05, 2.0) for _ in range(50)}
        assert len(delays) > 40  # not a fixed ladder

    def test_default_cap(self):
        rng = random.Random(0)
        assert backoff_delay(50, rng) <= BACKOFF_CAP


def _wire(frame: bytes) -> bytes:
    return len(frame).to_bytes(4, "big") + frame


def _message(payload: bytes) -> bytes:
    return ProtocolMessage("inst", 1, 0, Channel.P2P, payload).to_bytes()


def _stamp(stamp: int, payload: bytes) -> bytes:
    return (
        bytes([_TAG_TOB])
        + encode_int(_ORDERED)
        + encode_int(stamp)
        + encode_int(1)
        + encode_bytes(_message(payload))
    )


_VALID = bytes([_TAG_PROTOCOL]) + _message(b"valid")


def _decode_failures(node_id: int) -> float:
    family = default_registry().get("repro_network_decode_failures_total")
    return family.labels(str(node_id)).value


async def _read_link(sender: int, frames: list[bytes]) -> tuple[list, float]:
    """Feed ``frames`` from ``sender`` into node 3's TCP read loop, under a
    network manager with the built-in TOB (node 1 sequences).  Returns the
    payloads node 3 delivered and the frames it dropped and counted."""
    transport = TcpP2P(3, "127.0.0.1", 0, {})
    manager = NetworkManager(transport)
    delivered = []

    async def handler(message):
        delivered.append(message.payload)

    manager.set_protocol_handler(handler)
    reader = asyncio.StreamReader()
    for frame in frames:
        reader.feed_data(_wire(frame))
    reader.feed_eof()
    before = _decode_failures(3)
    await transport._read_loop(sender, reader)
    return delivered, _decode_failures(3) - before


#: (sender, frame, payloads delivered, frames dropped): each frame is
#: followed on the same link by ``_VALID``, which must be delivered.
FRAMES = {
    "p2p message": (1, bytes([_TAG_PROTOCOL]) + _message(b"p2p"), [b"p2p"], 0),
    "tob stamp from the sequencer": (1, _stamp(0, b"tob"), [b"tob"], 0),
    "empty frame": (1, b"", [], 1),
    "unknown channel tag": (1, b"\x7f" + _message(b"x"), [], 1),
    "truncated tob submit": (
        1,
        (bytes([_TAG_TOB]) + encode_int(_SUBMIT) + encode_bytes(b"data"))[:-2],
        [],
        1,
    ),
    "tob stamp with trailing bytes": (1, _stamp(0, b"tob") + b"\x00", [], 1),
    "tob stamp from a non-sequencer": (2, _stamp(0, b"forged"), [], 1),
    "tob submit to a non-sequencer": (
        1,
        bytes([_TAG_TOB]) + encode_int(_SUBMIT) + encode_bytes(_message(b"x")),
        [],
        1,
    ),
    "undecodable p2p message": (1, bytes([_TAG_PROTOCOL]) + b"\x00\x01", [], 1),
}


class TestBadFrames:
    @pytest.mark.parametrize("row", FRAMES.values(), ids=FRAMES.keys())
    def test_frame_then_valid_frame(self, row):
        sender, frame, payloads, dropped = row
        delivered, counted = asyncio.run(_read_link(sender, [frame, _VALID]))
        assert delivered == payloads + [b"valid"]
        assert counted == dropped

    @settings(max_examples=200, deadline=None)
    @given(
        frame=st.binary(max_size=96)
        | st.builds(
            lambda tag, body: bytes([tag]) + body,
            st.sampled_from([_TAG_PROTOCOL, _TAG_TOB]),
            st.binary(max_size=96),
        )
    )
    def test_any_frame_leaves_the_link_reading(self, frame):
        delivered, _ = asyncio.run(_read_link(1, [frame, _VALID]))
        assert delivered[-1:] == [b"valid"]

    @pytest.mark.integration
    def test_oversized_length_header_closes_the_connection(self):
        async def scenario():
            node = TcpP2P(3, "127.0.0.1", 0, {})
            await node.start()
            port = node._server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(_wire((1).to_bytes(4, "big")))  # handshake
                writer.write((_MAX_FRAME + 1).to_bytes(4, "big"))
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                assert node._accepted_writers == set()
            finally:
                writer.close()
                await node.stop()

        asyncio.run(scenario())


def _protocol_for(keys, party_id, data, instance_id):
    share = keys.share_for(party_id)
    operation = make_operation(
        keys.scheme, keys.public_key, share, OperationRequest("coin", data)
    )
    return NonInteractiveProtocol(instance_id, party_id, operation)


@pytest.mark.integration
class TestTcpResendQueue:
    def test_send_retried_after_peer_restart(self):
        """A frame that fails while the peer is down must arrive after the
        peer comes back — the resend queue means no silent drops."""

        async def scenario():
            received: list[bytes] = []

            async def on_b(sender: int, data: bytes) -> None:
                received.append(data)

            node_a = TcpP2P(
                1,
                "127.0.0.1",
                _PORT_A,
                {2: ("127.0.0.1", _PORT_B)},
                dial_retries=2,
                backoff_base=0.01,
                backoff_cap=0.05,
                send_deadline=0.5,
            )
            node_b = TcpP2P(2, "127.0.0.1", _PORT_B, {1: ("127.0.0.1", _PORT_A)})
            node_b.set_handler(on_b)
            await node_a.start()
            await node_b.start()
            try:
                await node_a.send(2, b"before restart")
                for _ in range(100):
                    if received:
                        break
                    await asyncio.sleep(0.02)
                assert received == [b"before restart"]

                # Take the peer down.  stop() severs its accepted inbound
                # connections, so the sender's cached link dies; writes into
                # the dead socket may still be buffered by the kernel, so
                # probe until a failure is detected and queued.
                await node_b.stop()
                node_a._drop_writer(2)  # what the peer's RST does on a real wire
                for i in range(20):
                    await node_a.send(2, b"while down %d" % i)
                    if node_a._resend_queues.get(2):
                        break
                    await asyncio.sleep(0.05)
                assert node_a._resend_queues.get(2), "failure never queued"
                queued = list(node_a._resend_queues[2])

                # Restart the peer on the same port: the background flusher
                # must deliver the queued frames without a new send() call.
                node_b2 = TcpP2P(
                    2, "127.0.0.1", _PORT_B, {1: ("127.0.0.1", _PORT_A)}
                )
                received_after: list[bytes] = []

                async def on_b2(sender: int, data: bytes) -> None:
                    received_after.append(data)

                node_b2.set_handler(on_b2)
                await node_b2.start()
                try:
                    for _ in range(200):
                        if len(received_after) >= len(queued):
                            break
                        await asyncio.sleep(0.02)
                    assert received_after[: len(queued)] == queued
                    assert not node_a._resend_queues.get(2)
                finally:
                    await node_b2.stop()
            finally:
                await node_a.stop()

        asyncio.run(scenario())


@pytest.mark.integration
class TestExecutorDegradation:
    def test_watchdog_rebroadcasts_once_before_timeout(self, keys_cks05):
        """With no peers answering, the executor re-sends its own share at
        half the timeout budget, then aborts with a structured reason."""

        async def scenario():
            sent = []

            async def send(message):
                sent.append(message)

            manager = InstanceManager(1, send, default_timeout=0.6)
            protocol = _protocol_for(keys_cks05, 1, b"watchdog", "wd-inst")
            manager.start_instance(protocol, "cks05")
            with pytest.raises(ProtocolAbortedError) as err:
                await manager.result("wd-inst")
            assert err.value.reason == "insufficient_shares"
            # Original round-0 broadcast plus exactly one re-broadcast.
            assert len(sent) == 2
            assert sent[0].payload == sent[1].payload
            await manager.shutdown()

        asyncio.run(scenario())

    def test_unawaited_abort_is_not_an_unretrieved_exception(
        self, keys_cks05, caplog
    ):
        """The released executor's result future is collected with the
        abort still inside; the record already carries it."""
        import gc

        async def scenario():
            async def send(message):
                return None

            manager = InstanceManager(1, send, default_timeout=0.1)
            protocol = _protocol_for(keys_cks05, 1, b"unawaited", "quiet-inst")
            manager.start_instance(protocol, "cks05")
            del protocol
            await asyncio.sleep(0.3)
            assert manager.record("quiet-inst").abort_reason == "insufficient_shares"
            gc.collect()
            await asyncio.sleep(0)
            await manager.shutdown()

        with caplog.at_level("ERROR", logger="asyncio"):
            asyncio.run(scenario())
        assert "never retrieved" not in caplog.text

    def test_timeout_releases_tasks_backlog_and_inbox(self, keys_cks05):
        async def scenario():
            async def send(message):
                return None

            manager = InstanceManager(1, send, default_timeout=0.2)
            protocol = _protocol_for(keys_cks05, 1, b"cleanup", "clean-inst")
            manager.start_instance(protocol, "cks05")
            with pytest.raises(ProtocolAbortedError):
                await manager.result("clean-inst")
            await asyncio.sleep(0)  # let the done-callback run
            assert not manager._tasks  # round task cancelled, not leaked
            assert "clean-inst" not in manager._backlog
            # The executor is released with everything it held.
            assert "clean-inst" not in manager._executors
            assert manager.active_count == 0

            # Residual messages after the abort are dropped, not buffered.
            from repro.core.messages import Channel, ProtocolMessage

            residual = ProtocolMessage(
                "clean-inst", 2, 0, Channel.P2P, b"\x00late"
            )
            await manager.handle_network_message(residual)
            assert "clean-inst" not in manager._executors
            assert "clean-inst" not in manager._backlog
            await manager.shutdown()

        asyncio.run(scenario())
