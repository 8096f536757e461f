"""The simulated Θ-network: protocol flows over modeled CPUs and links.

Simulates exactly the flows of :mod:`repro.core`: the client fans each
request out to all n nodes; every node admits the request, computes its
partial result, and broadcasts it; arriving shares are verified (or buffered
if they beat the request, or cheaply dropped if the instance already
finished — those are the paper's "residual messages"); at t+1 valid shares
the node combines.  KG20 runs its two rounds, waiting for all n members in
each (§4.5 semantics).

Every node owns one FIFO vCPU; every message pays a deserialization
overhead; costs come from :class:`~repro.sim.costs.CostModel` and delays
from :class:`~repro.sim.latency.LatencyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..network.faults import FaultInjector, FaultPlan
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
    # Chaos accounting when a FaultPlan was active: kind -> injection count
    # (same taxonomy as the repro_faults_injected counter).
    faults_injected: dict[str, int] = field(default_factory=dict)


class _St:
    """Per-(node, request) protocol state (lean on purpose: hot path)."""

    __slots__ = (
        "started",
        "finished",
        "aborted",
        "combining",
        "valid",
        "buffered",
        "buffered_bad",
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
        self.aborted = False
        self.combining = False
        self.valid = 0
        self.buffered = 0
        self.buffered_bad = 0
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
        client_region: Region = Region.FRA1,
        kg20_over_tob: bool = False,
        fault_plan: FaultPlan | None = None,
    ):
        self.deployment = deployment
        self.scheme = scheme
        self.costs = (cost_model or calibrated_cost_model()).for_scheme(scheme)
        self.latency = latency_model or LatencyModel()
        self.client_region = client_region
        self.kg20_over_tob = kg20_over_tob
        # Seeded chaos: the FaultPlan LocalCluster takes (docs/robustness.md)
        # on simulated links and clocks.  A crashed node (1-based id) handles
        # nothing: non-interactive schemes tolerate t, KG20 stalls on one.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            plan_nodes = {c.node for c in fault_plan.crashes} | set(
                fault_plan.byzantine
            )
            if any(not 1 <= c <= deployment.parties for c in plan_nodes):
                raise ConfigurationError("fault plan node id out of range")
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
        client_region = self.client_region
        interactive = self.scheme == "kg20"
        plan = self.fault_plan
        # Fresh injector per run: the same network object replays the same
        # fault schedule on every run (determinism contract of FaultPlan).
        injector = FaultInjector(plan) if plan is not None else None
        fault_counts: dict[str, int] = {}

        def count_fault(kind: str) -> None:
            fault_counts[kind] = fault_counts.get(kind, 0) + 1

        def lost_to_crash(i: int, r: int) -> bool:
            """Crash-*recovery* semantics: a node that crashed while this
            request was in flight lost its volatile protocol state, so after
            recovery the instance is aborted — not silently resumed with its
            pre-crash share counters intact.  Mirrors the asyncio node, which
            journals such instances and restores them as ``crash_recovery``
            aborts on restart."""
            if plan is None:
                return False
            st = states[i][r]
            if st.aborted:
                return True
            if st.finished:
                return False
            sample = samples[i][r]
            if sample is None:
                return False
            since = sample.received_at
            now = sim.now
            for crash in plan.crashes:
                if crash.node == i + 1 and since < crash.at <= now:
                    st.aborted = True
                    count_fault("crash_recovery")
                    return True
            return False

        def deliver(src: int, dst: int, delay_extra: float, fn, corrupted=None) -> None:
            if plan is not None:
                now = sim.now
                if plan.crashed(src + 1, now):
                    count_fault("crash")
                    return
                if plan.partitioned(src + 1, dst + 1, now):
                    count_fault("partition")
                    return
            copies = 1
            extra = 0.0
            if injector is not None:
                decision = injector.decide(src + 1, dst + 1)
                if decision.drop:
                    count_fault("drop")
                    return
                if decision.corrupt:
                    count_fault("corrupt")
                    if corrupted is None:
                        # No corruption model for this message type: the
                        # receiver cannot parse the frame, so it is lost.
                        return
                    fn = corrupted
                if decision.delay > 0.0:
                    count_fault("delay")
                    extra += decision.delay
                if decision.reorder:
                    count_fault("reorder")
                    extra += plan.reorder_hold
                if decision.duplicate:
                    count_fault("duplicate")
                    copies = 2
            if self.kg20_over_tob and interactive:
                seq = 0  # node 1 sequences the TOB
                delay = lat(regions[src], regions[seq]) + lat(
                    regions[seq], regions[dst]
                )
            else:
                delay = lat(regions[src], regions[dst])

            def arrive(fn=fn) -> None:
                # Crash windows are checked at delivery time too: a message
                # in flight when the recipient dies is lost with it.
                if plan is not None and plan.crashed(dst + 1, sim.now):
                    count_fault("crash")
                    return
                fn()

            for _ in range(copies):
                sim.schedule(delay + delay_extra + extra, arrive)

        def record_finish(i: int, r: int) -> None:
            if lost_to_crash(i, r):
                return  # crashed during the combine: the result died with it
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
                and not lost_to_crash(i, r)
            ):
                st.combining = True
                cpus[i].submit(
                    lambda: costs.combine(quorum),
                    lambda: record_finish(i, r),
                )

        def queue_buffered_verify(i: int, r: int, valid: bool = True) -> None:
            st = states[i][r]

            def cost() -> float:
                if st.finished:
                    st.mode = 0
                    return costs.drop_overhead
                st.mode = 2
                return costs.share_verify

            def done() -> None:
                if st.mode == 2 and valid:
                    st.valid += 1
                    maybe_combine(i, r)

            cpus[i].submit(cost, done)

        def on_share(j: int, r: int, valid: bool = True) -> None:
            # ``valid=False`` models a corrupted/byzantine share: the receiver
            # pays the full verification cost but the share never counts
            # toward the quorum (it cannot poison the combine).
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
                    if valid:
                        st.buffered += 1
                    else:
                        st.buffered_bad += 1
                elif st.mode == 2 and valid:
                    st.valid += 1
                    maybe_combine(j, r)

            cpus[j].submit(cost, done)

        def own_share_done(i: int, r: int) -> None:
            st = states[i][r]
            st.started = True
            st.valid += 1
            for j in range(n):
                if j != i:
                    deliver(
                        i,
                        j,
                        0.0,
                        lambda j=j: on_share(j, r),
                        corrupted=lambda j=j: on_share(j, r, False),
                    )
            for _ in range(st.buffered):
                queue_buffered_verify(i, r)
            st.buffered = 0
            for _ in range(st.buffered_bad):
                queue_buffered_verify(i, r, valid=False)
            st.buffered_bad = 0
            maybe_combine(i, r)

        def on_request(i: int, r: int) -> None:
            if plan is not None and plan.crashed(i + 1, sim.now):
                count_fault("crash")
                return
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
            if lost_to_crash(i, r):
                return
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
                and not lost_to_crash(i, r)
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
                    deliver(i, j, 0.0, lambda j=j: on_zshare(j, r))
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
                    deliver(i, j, 0.0, lambda j=j: on_commit(j, r))
            maybe_round2(i, r)

        # ---- schedule the workload and run -------------------------------------

        for r, submit_time in enumerate(arrivals):
            for i in range(n):
                delay = submit_time + lat(client_region, regions[i])
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
            faults_injected=fault_counts,
        )
