"""The simulated Θ-network: protocol flows over modeled CPUs and links.

Simulates exactly the flows of :mod:`repro.core`: the client, in FRA1, fans
each request out to all n nodes; every node admits the request, computes its
partial result, and broadcasts it; arriving shares are verified (or buffered
if they beat the request, or cheaply dropped if the instance already
finished — those are the paper's "residual messages"); at t+1 valid shares
the node combines.  KG20 runs its two rounds, waiting for all n members in
each (§4.5 semantics).

Every node owns one FIFO vCPU; every message pays a deserialization
overhead; costs come from :class:`~repro.sim.costs.CostModel` and delays
from :class:`~repro.sim.latency.LatencyModel`.  The network is fault-free,
as in the paper's §4 testbed; injected faults run against the real service
(:class:`~repro.network.faults.FaultyNetwork` under
:class:`~repro.service.cluster.LocalCluster`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .costs import CostModel, calibrated_cost_model
from .deployments import Deployment
from .events import FifoCpu, Simulator
from .latency import LatencyModel, Region
from .workload import Workload


@dataclass
class RequestSample:
    """Per-(request, node) latency sample: the paper's L^node data points."""

    __slots__ = ("request_id", "node_id", "received_at", "finished_at")

    request_id: int
    node_id: int
    received_at: float
    finished_at: float | None

    @property
    def latency(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.received_at


@dataclass
class SimResult:
    """Everything one experiment run produced."""

    scheme: str
    deployment: str
    workload: Workload
    samples: list[RequestSample]
    request_first_finish: dict[int, float]
    cpu_utilization: dict[int, float]
    sim_time: float
    events: int


class _St:
    """Per-(node, request) protocol state (lean on purpose: hot path)."""

    __slots__ = (
        "started",
        "finished",
        "combining",
        "valid",
        "buffered",
        "mode",
        "commits",
        "buffered_commits",
        "round2_queued",
        "round2_done",
        "zshares",
    )

    def __init__(self) -> None:
        self.started = False
        self.finished = False
        self.combining = False
        self.valid = 0
        self.buffered = 0
        self.mode = 0
        self.commits = 0
        self.buffered_commits = 0
        self.round2_queued = False
        self.round2_done = False
        self.zshares = 0


class SimulatedThetaNetwork:
    """One (scheme, deployment) simulation context; ``run`` per workload."""

    def __init__(
        self,
        deployment: Deployment,
        scheme: str,
        cost_model: CostModel | None = None,
        latency_model: LatencyModel | None = None,
        kg20_over_tob: bool = False,
    ):
        self.deployment = deployment
        self.scheme = scheme
        self.costs = (cost_model or calibrated_cost_model()).for_scheme(scheme)
        self.latency = latency_model or LatencyModel()
        self.kg20_over_tob = kg20_over_tob
        self.regions = deployment.node_regions()
        if scheme == "kg20" and deployment.parties < 2:
            raise ConfigurationError("KG20 needs at least 2 parties")

    # -- wiring ---------------------------------------------------------------

    def run(self, workload: Workload, until: float | None = None) -> SimResult:
        """Simulate one workload; ``until`` bounds virtual time.

        Every §4.3 metric only looks at events inside the grace window
        (1.1 × the experiment duration), so the capacity sweeps pass a
        bound just past it instead of draining saturated queues for
        (simulated) minutes.  ``None`` runs to completion.
        """
        sim = Simulator()
        n = self.deployment.parties
        quorum = self.deployment.quorum
        costs = self.costs
        msg_cost = costs.message(n)
        arrivals = workload.arrival_times()
        request_count = len(arrivals)
        cpus = [FifoCpu(sim) for _ in range(n)]
        states = [[_St() for _ in range(request_count)] for _ in range(n)]
        samples: list[list[RequestSample | None]] = [
            [None] * request_count for _ in range(n)
        ]
        first_finish: dict[int, float] = {}
        regions = self.regions
        lat = self.latency.one_way
        interactive = self.scheme == "kg20"

        def deliver(src: int, dst: int, fn) -> None:
            if self.kg20_over_tob and interactive:
                seq = 0  # node 1 sequences the TOB
                delay = lat(regions[src], regions[seq]) + lat(
                    regions[seq], regions[dst]
                )
            else:
                delay = lat(regions[src], regions[dst])
            sim.schedule(delay, fn)

        def record_finish(i: int, r: int) -> None:
            st = states[i][r]
            st.finished = True
            sample = samples[i][r]
            assert sample is not None
            sample.finished_at = sim.now
            if r not in first_finish:
                first_finish[r] = sim.now

        # ---- non-interactive flow ------------------------------------------

        def maybe_combine(i: int, r: int) -> None:
            st = states[i][r]
            if (
                st.started
                and not st.finished
                and not st.combining
                and st.valid >= quorum
            ):
                st.combining = True
                cpus[i].submit(
                    lambda: costs.combine(quorum),
                    lambda: record_finish(i, r),
                )

        def queue_buffered_verify(i: int, r: int) -> None:
            st = states[i][r]

            def cost() -> float:
                if st.finished:
                    st.mode = 0
                    return costs.drop_overhead
                st.mode = 2
                return costs.share_verify

            def done() -> None:
                if st.mode == 2:
                    st.valid += 1
                    maybe_combine(i, r)

            cpus[i].submit(cost, done)

        def on_share(j: int, r: int) -> None:
            st = states[j][r]

            def cost() -> float:
                if st.finished:
                    st.mode = 0
                    return costs.drop_overhead
                if not st.started:
                    st.mode = 1
                    return msg_cost
                st.mode = 2
                return msg_cost + costs.share_verify

            def done() -> None:
                if st.mode == 1:
                    st.buffered += 1
                elif st.mode == 2:
                    st.valid += 1
                    maybe_combine(j, r)

            cpus[j].submit(cost, done)

        def own_share_done(i: int, r: int) -> None:
            st = states[i][r]
            st.started = True
            st.valid += 1
            for j in range(n):
                if j != i:
                    deliver(i, j, lambda j=j: on_share(j, r))
            for _ in range(st.buffered):
                queue_buffered_verify(i, r)
            st.buffered = 0
            maybe_combine(i, r)

        def on_request(i: int, r: int) -> None:
            samples[i][r] = RequestSample(r, i + 1, sim.now, None)
            if interactive:
                cpus[i].submit(
                    lambda: costs.request(workload.payload_bytes) + costs.commit_gen,
                    lambda: commit_done(i, r),
                )
            else:
                cpus[i].submit(
                    lambda: costs.request(workload.payload_bytes) + costs.share_gen,
                    lambda: own_share_done(i, r),
                )

        # ---- KG20 two-round flow ------------------------------------------------

        def maybe_round2(i: int, r: int) -> None:
            st = states[i][r]
            if st.started and not st.round2_queued and st.commits == n:
                st.round2_queued = True
                cpus[i].submit(
                    lambda: costs.round2_base + n * costs.round2_per_party,
                    lambda: round2_done(i, r),
                )

        def maybe_frost_combine(i: int, r: int) -> None:
            st = states[i][r]
            if (
                st.round2_done
                and not st.finished
                and not st.combining
                and st.zshares == n
            ):
                st.combining = True
                cpus[i].submit(
                    lambda: costs.combine_base + n * costs.combine_per_share,
                    lambda: record_finish(i, r),
                )

        def round2_done(i: int, r: int) -> None:
            st = states[i][r]
            st.round2_done = True
            st.zshares += 1
            for j in range(n):
                if j != i:
                    deliver(i, j, lambda j=j: on_zshare(j, r))
            maybe_frost_combine(i, r)

        def on_commit(j: int, r: int) -> None:
            st = states[j][r]

            def cost() -> float:
                return costs.drop_overhead if st.finished else msg_cost

            def done() -> None:
                if st.finished:
                    return
                if st.started:
                    st.commits += 1
                    maybe_round2(j, r)
                else:
                    st.buffered_commits += 1

            cpus[j].submit(cost, done)

        def on_zshare(j: int, r: int) -> None:
            st = states[j][r]

            def cost() -> float:
                return costs.drop_overhead if st.finished else msg_cost

            def done() -> None:
                if not st.finished:
                    st.zshares += 1
                    maybe_frost_combine(j, r)

            cpus[j].submit(cost, done)

        def commit_done(i: int, r: int) -> None:
            st = states[i][r]
            st.started = True
            st.commits += 1 + st.buffered_commits
            st.buffered_commits = 0
            for j in range(n):
                if j != i:
                    deliver(i, j, lambda j=j: on_commit(j, r))
            maybe_round2(i, r)

        # ---- schedule the workload and run -------------------------------------

        for r, submit_time in enumerate(arrivals):
            for i in range(n):
                delay = submit_time + lat(Region.FRA1, regions[i])
                sim.schedule(delay, lambda i=i, r=r: on_request(i, r))
        sim.run(until=until)

        flat_samples = [s for row in samples for s in row if s is not None]
        elapsed = sim.now if sim.now > 0 else 1.0
        return SimResult(
            scheme=self.scheme,
            deployment=self.deployment.acronym,
            workload=workload,
            samples=flat_samples,
            request_first_finish=first_finish,
            cpu_utilization={
                i + 1: cpus[i].utilization(elapsed) for i in range(n)
            },
            sim_time=sim.now,
            events=sim.events_processed,
        )
