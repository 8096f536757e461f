"""Minimal discrete-event simulation engine.

A binary-heap event loop plus the one resource the evaluation needs: a
single-server FIFO CPU (the paper pins each Thetacrypt container to 1 vCPU,
§4.1).  Deterministic: same seed, same schedule, same results.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable

from ..errors import SimulationError

Event = Callable[[], None]


class Simulator:
    """Event heap with monotonically advancing virtual time."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._processed = 0

    def schedule(self, delay: float, event: Event) -> None:
        """Run ``event`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), event))

    def run(self, until: float | None = None) -> None:
        """Process events until the heap drains (or virtual time ``until``)."""
        while self._heap:
            time, _, event = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            event()
            self._processed += 1

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        return len(self._heap)


class FifoCpu:
    """Single-server FIFO queue: one vCPU executing crypto jobs in order.

    Jobs are submitted as ``(cost_fn, done_fn)`` pairs; ``cost_fn`` runs when
    the job *starts* (so the cost can depend on up-to-date protocol state,
    e.g. "this share is residual, just drop it") and returns the CPU seconds
    consumed; ``done_fn`` fires at completion.  Queueing here is what
    produces the latency blow-up past the knee point in the capacity test.
    """

    __slots__ = ("_simulator", "_queue", "_running", "busy_time", "jobs_executed")

    def __init__(self, simulator: Simulator):
        self._simulator = simulator
        self._queue: deque[tuple[Callable[[], float], Event | None]] = deque()
        self._running = False
        self.busy_time = 0.0
        self.jobs_executed = 0

    def submit(self, cost_fn: Callable[[], float], done: Event | None = None) -> None:
        """Enqueue a job (FIFO)."""
        self._queue.append((cost_fn, done))
        if not self._running:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._running = False
            return
        self._running = True
        cost_fn, done = self._queue.popleft()
        cost = cost_fn()
        if cost < 0:
            raise SimulationError(f"negative job cost {cost}")
        self.busy_time += cost
        self.jobs_executed += 1
        self._simulator.schedule(cost, lambda: self._complete(done))

    def _complete(self, done: Event | None) -> None:
        if done is not None:
            done()
        self._start_next()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
