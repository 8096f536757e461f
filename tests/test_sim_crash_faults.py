"""Crash faults in the simulator: which schemes survive t dead nodes."""

import pytest

from repro.errors import ConfigurationError
from repro.network.faults import Crash, FaultPlan
from repro.sim.cluster import SimulatedThetaNetwork
from repro.sim.deployments import Deployment
from repro.sim.latency import Region
from repro.sim.workload import Workload

TINY = Deployment("TINY-4-L", "tiny", 4, 1, (Region.FRA1,), 64)


def crashed(*nodes: int) -> FaultPlan:
    """Crash-stop of ``nodes`` from the start of the run."""
    return FaultPlan(crashes=tuple(Crash(node) for node in nodes))


class TestSimulatedCrashFaults:
    def test_noninteractive_tolerates_t_crashes(self):
        # n=4, t=1: one dead node, every live node still reaches quorum 2.
        net = SimulatedThetaNetwork(TINY, "sg02", fault_plan=crashed(4))
        result = net.run(Workload(rate=2, duration=2))
        live_samples = [s for s in result.samples if s is not None]
        assert all(s.node_id != 4 for s in live_samples)
        assert all(s.finished_at is not None for s in live_samples)
        assert len(result.request_first_finish) == 4  # all requests done

    def test_crash_beyond_threshold_stalls_everything(self):
        # 3 of 4 dead < quorum 2 live... 1 live node has only its own share.
        net = SimulatedThetaNetwork(TINY, "sg02", fault_plan=crashed(2, 3, 4))
        result = net.run(Workload(rate=2, duration=1))
        assert result.request_first_finish == {}
        assert all(s.finished_at is None for s in result.samples)

    def test_kg20_stalls_on_any_crash(self):
        # FROST's fixed signing group waits for all n members (§4.5); a
        # single crash blocks termination — the scheme is not robust.
        net = SimulatedThetaNetwork(TINY, "kg20", fault_plan=crashed(3))
        result = net.run(Workload(rate=1, duration=1))
        assert result.request_first_finish == {}

    def test_crash_reduces_load_on_survivors(self):
        healthy = SimulatedThetaNetwork(TINY, "bls04").run(Workload(rate=8, duration=2))
        degraded = SimulatedThetaNetwork(TINY, "bls04", fault_plan=crashed(4)).run(
            Workload(rate=8, duration=2)
        )
        # Fewer peers → fewer shares to verify → lower CPU utilization.
        assert degraded.cpu_utilization[1] < healthy.cpu_utilization[1]

    def test_invalid_crash_id_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedThetaNetwork(TINY, "sg02", fault_plan=crashed(9))
