"""Regression tests for the transport/executor robustness work.

Pins down the hardened behaviours the chaos suite relies on:

* ``backoff_delay`` is exponential-with-jitter inside documented bounds,
* a TCP send that fails while the peer is down lands on the resend queue
  (``repro_net_send_failures``) and is delivered after the peer restarts —
  no silent drop,
* the round-progress watchdog re-broadcasts once before the timeout, and
* an executor timeout releases every resource: no leaked asyncio tasks,
  no pinned backlog, an empty inbox.
"""

import asyncio
import random

import pytest

from repro.core.orchestration import InstanceManager
from repro.core.protocols import (
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.errors import ProtocolAbortedError
from repro.network.tcp import BACKOFF_CAP, TcpP2P, backoff_delay

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
