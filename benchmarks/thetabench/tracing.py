"""Benchmark-side spans around each layer's public functions.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` swaps
wrappers onto the public functions listed in :func:`targets` and onto
asyncio's ``Handle._run``; ``uninstall`` puts the originals back.

Every callback the event loop runs (one synchronous slice of a task, a
transport read, a timer) becomes a top-level span named after the layer
whose coroutine the task is running; the wrapped functions called inside
it become its children.  One process and one thread mean synchronous spans
never overlap, so self times (a span minus its direct children) add up to
the time the loop was busy, and what is left of the wall clock is the
loop waiting or bookkeeping (``trace.unattributed_share``).  Coroutine
entry points (``run_request``, ``dispatch``) are not given spans of their
own: a coroutine's wall time contains every other task that ran while it
was suspended, so it cannot be part of a budget that sums to the whole.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import importlib
import sys
from collections import defaultdict
from time import perf_counter

#: Span-name prefix → layer of the budget.  First match wins.
LAYERS = (
    "service",
    "core.orchestration",
    "core.protocols",
    "schemes",
    "groups",
    "symmetric",
    "network",
    "storage",
    "telemetry",
    "asyncio",
    "bench",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


def targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped public function.

    An owner that is a class is patched in place; a plain function is
    patched in every ``repro`` module that imported it by name.
    """
    from repro.core.orchestration import InstanceManager
    from repro.core.messages import ProtocolMessage
    from repro.core.protocols import operations
    from repro.groups import base as groups_base
    from repro.groups import ed25519, precompute
    from repro.groups.bn254 import g1
    from repro.schemes import bls04, dleq, sg02
    from repro.storage import DurableResultCache, WriteAheadLog
    from repro.symmetric import ChaCha20Poly1305

    # The package re-exports the function ``pairing`` over its submodule.
    pairing = importlib.import_module("repro.groups.bn254.pairing")
    found = [
        ("core.orchestration.start_instance", InstanceManager, "start_instance"),
        ("core.protocols.make_operation", operations, "make_operation"),
        ("core.protocols.verify_share", operations.ShareOperation, "accept_share"),
        ("schemes.bls04.verify_signature", bls04.Bls04SignatureScheme, "verify"),
        ("schemes.sg02.verify_ciphertext", sg02.Sg02Cipher, "verify_ciphertext"),
        ("schemes.dleq.prove", dleq, "dleq_prove"),
        ("schemes.dleq.verify", dleq, "dleq_verify"),
        ("groups.bn254.pairing_check", pairing, "pairing_check"),
        ("groups.bn254.g1_mul", g1.BN254G1Element, "__pow__"),
        ("groups.bn254.hash_to_g1", g1.BN254G1Group, "hash_to_element"),
        ("groups.bn254.g1_decode", g1.BN254G1Group, "element_from_bytes"),
        ("groups.ed25519.exp", ed25519.Ed25519Element, "__pow__"),
        ("groups.ed25519.decode", ed25519.Ed25519Group, "element_from_bytes"),
        ("groups.ed25519.hash_to_element", ed25519.Ed25519Group, "hash_to_element"),
        ("groups.multi_exp", groups_base.Group, "multi_exp"),
        ("groups.fixed_pow", precompute.PrecomputeCache, "pow"),
        ("symmetric.aead_decrypt", ChaCha20Poly1305, "decrypt"),
        ("network.codec", ProtocolMessage, "to_bytes"),
        ("network.codec", ProtocolMessage, "from_bytes"),
        ("storage.wal.append", WriteAheadLog, "append"),
        ("storage.results.put", DurableResultCache, "put"),
        ("storage.results.get", DurableResultCache, "get"),
    ]
    for adapter in (
        operations.DecryptOperation,
        operations.SignOperation,
        operations.CoinOperation,
    ):
        found.append(("core.protocols.create_share", adapter, "create_own_share"))
        found.append(("core.protocols.combine", adapter, "combine"))
    return found


def _slice_layer(path: str) -> str:
    """Layer of a task, from the file its outermost coroutine lives in."""
    path = path.replace("\\", "/")
    if "/repro/" in path:
        parts = path.rsplit("/repro/", 1)[1].split("/")
        name = ".".join(parts[:2]) if parts[0] == "core" else parts[0]
        return name if name in LAYERS else "asyncio"
    return "bench" if "/thetabench/" in path else "asyncio"


class Tracer:
    """Span store plus the install/uninstall of every wrapper."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id) per span.
        self.spans: list[tuple | None] = []  # None while a span is open
        self.request = -1
        #: Open spans, innermost last: (index, name, start, parent).
        self._stack: list[tuple[int, str, float, int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._slice_layers: dict[str, str] = {}
        #: (holders, attribute, original, span name), resolved once: the
        #: trace pass installs and removes the wrappers around every request.
        self._sites = [
            (self._holders(owner, attribute), attribute, vars(owner)[attribute], name)
            for name, owner, attribute in targets()
        ]

    def _span(self, name: str, call, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1][0] if stack else -1
        start = perf_counter()
        stack.append((index, name, start, parent))
        try:
            return call(*args, **kwargs)
        finally:
            # uninstall() has already closed a span that was still open.
            if spans[index] is None:
                stack.pop()
                spans[index] = (name, start, perf_counter(), parent, self.request)

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            return self._span(name, function, *args, **kwargs)

        return traced

    @staticmethod
    def _holders(owner, attribute: str) -> list:
        """Where the original lives: the class itself, or every loaded
        ``repro`` module that holds the function (``from .dleq import
        dleq_verify`` copies the reference)."""
        if isinstance(owner, type):
            return [owner]
        raw = vars(owner)[attribute]
        return [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro") and vars(module).get(attribute) is raw
        ]

    def install(self) -> None:
        """Wrappers on.  The event-loop callback that is running now began
        untraced and stays so; yield to the loop before the traced work."""
        assert not self._undo, "tracer already installed"
        for holders, attribute, raw, name in self._sites:
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            for holder in holders:
                self._undo.append((holder, attribute, raw))
                setattr(holder, attribute, wrapped)
        original_run = asyncio.events.Handle._run
        layers = self._slice_layers

        def traced_run(handle):
            # Task steps and wake-ups are bound to their task; anything
            # else (transport reads, timers, future callbacks) is asyncio's.
            owner = getattr(handle._callback, "__self__", None)
            name = "asyncio"
            if isinstance(owner, asyncio.Task):
                path = owner.get_coro().cr_code.co_filename
                name = layers.get(path)
                if name is None:
                    name = layers[path] = _slice_layer(path)
            return self._span(name, original_run, handle)

        self._undo.append((asyncio.events.Handle, "_run", original_run))
        asyncio.events.Handle._run = traced_run

    def uninstall(self) -> None:
        """Wrappers off; spans still open (the callback that called this)
        end now, so nothing after it is charged to the traced interval."""
        now = perf_counter()
        for index, name, start, parent in self._stack:
            self.spans[index] = (name, start, now, parent, self.request)
        self._stack.clear()
        for holder, attribute, raw in reversed(self._undo):
            setattr(holder, attribute, raw)
        self._undo.clear()


def budget(spans: list[tuple]) -> dict:
    """Self time per layer and call statistics per span name.

    Returns ``{"layers": {layer: seconds}, "names": {name: (calls,
    inclusive seconds)}, "busy": seconds}`` where ``busy`` is the summed
    duration of the top-level spans — equal to the summed self times,
    which is what lets the budget add up to the wall clock.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    busy = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        layers[layer_of(name)] += duration - child_time[index]
        calls[name] += 1
        inclusive[name] += duration
        if parent < 0:
            busy += duration
    return {
        "layers": dict(layers),
        "names": {name: (calls[name], inclusive[name]) for name in calls},
        "busy": busy,
    }
