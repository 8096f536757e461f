"""The paper's three experiments, packaged as reusable functions (§4.4).

* :func:`capacity_test` — Fig. 4: sweep the request rate in factors of two
  up to the deployment's maximum and record throughput vs. L95.
* :func:`steady_state` — Fig. 5a / Table 4: a long run at knee capacity on
  DO-31-G, yielding L_θ^net, L_50^net, L_95^net, δ_res and η_θ.
* :func:`payload_sweep` — Fig. 5b: repeat the steady-state run for payload
  sizes 256 B … 4 KiB.

Simulated durations are scaled down from the paper's 60 s / 300 s (the DES
models a 127-node network on one core); the per-run request cap keeps the
Fig. 4 grid tractable while leaving enough samples for stable percentiles.
Caps can be raised via ``REPRO_SIM_MAX_REQUESTS`` for higher fidelity.
"""

from __future__ import annotations

import os

from .cluster import SimulatedThetaNetwork
from .costs import CostModel
from .deployments import Deployment
from .metrics import ExperimentMetrics, summarize
from .workload import Workload

#: Paper payload sweep (§4.2): 256 B to 4 KiB.
PAYLOAD_SIZES = (256, 512, 1024, 2048, 4096)

_DEFAULT_CAPS = {7: 300, 31: 120, 127: 24}


def _max_requests(parties: int) -> int:
    override = os.environ.get("REPRO_SIM_MAX_REQUESTS")
    if override:
        return int(override)
    for size, cap in sorted(_DEFAULT_CAPS.items()):
        if parties <= size:
            return cap
    return min(_DEFAULT_CAPS.values())


def run_once(
    deployment: Deployment,
    scheme: str,
    rate: float,
    duration: float,
    payload_bytes: int = 256,
    cost_model: CostModel | None = None,
    max_requests: int | None = None,
    seed: int = 7,
    kg20_over_tob: bool = False,
) -> ExperimentMetrics:
    """One (scheme, deployment, rate) run, summarized."""
    network = SimulatedThetaNetwork(
        deployment, scheme, cost_model=cost_model, kg20_over_tob=kg20_over_tob
    )
    if max_requests is None:
        cap = _max_requests(deployment.parties)
        # Keep at least ~1.5 simulated seconds of load at high rates so the
        # grace window is long enough for the pipeline to produce results.
        max_requests = max(cap, int(1.5 * rate))
    workload = Workload(
        rate=rate,
        duration=duration,
        payload_bytes=payload_bytes,
        seed=seed,
        max_requests=max_requests,
    )
    # Simulate just past the grace horizon: completions after it do not
    # enter any metric, and draining a saturated 127-node queue would cost
    # (simulated) minutes for nothing.
    horizon = workload.effective_duration * 1.1
    result = network.run(workload, until=horizon + 0.25)
    return summarize(result, deployment.quorum, deployment.parties)


def capacity_test(
    deployment: Deployment,
    scheme: str,
    rates: list[int] | None = None,
    duration: float = 10.0,
    cost_model: CostModel | None = None,
    max_requests: int | None = None,
) -> list[ExperimentMetrics]:
    """Fig. 4: the throughput–latency curve for one scheme and deployment."""
    points = []
    for rate in rates if rates is not None else deployment.rates():
        points.append(
            run_once(
                deployment,
                scheme,
                rate,
                duration,
                cost_model=cost_model,
                max_requests=max_requests,
            )
        )
    return points


def steady_state(
    deployment: Deployment,
    scheme: str,
    rate: float,
    duration: float = 60.0,
    payload_bytes: int = 256,
    cost_model: CostModel | None = None,
    max_requests: int | None = None,
) -> ExperimentMetrics:
    """Fig. 5a / Table 4: a long run at (typically) the knee rate."""
    cap = max_requests
    if cap is None:
        # Steady-state runs want more samples than capacity sweeps.
        cap = 4 * _max_requests(deployment.parties)
    return run_once(
        deployment,
        scheme,
        rate,
        duration,
        payload_bytes=payload_bytes,
        cost_model=cost_model,
        max_requests=cap,
    )


def payload_sweep(
    deployment: Deployment,
    scheme: str,
    rate: float,
    payload_sizes: tuple[int, ...] = PAYLOAD_SIZES,
    duration: float = 30.0,
    cost_model: CostModel | None = None,
) -> list[ExperimentMetrics]:
    """Fig. 5b: L_θ as a function of the request payload size."""
    return [
        steady_state(
            deployment,
            scheme,
            rate,
            duration=duration,
            payload_bytes=size,
            cost_model=cost_model,
        )
        for size in payload_sizes
    ]
