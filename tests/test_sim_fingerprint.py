"""Exact output of the fault-free simulator, pinned per scheme and deployment.

``test_paper_regressions.py`` checks the paper's knees within a tolerance;
this file pins the simulator's output bit for bit, so a refactor of
``repro.sim.cluster`` that changes any flow, cost or delay fails here even
when every knee stays put.  Each row runs one fixed-seed workload and
compares three values recorded on the simulator as it stood before its
chaos layer was removed:

* ``events``: discrete events processed;
* ``finished``: requests that at least one node completed;
* ``digest``: SHA-256 of the ``repr`` of every sample's
  ``(request_id, node_id, received_at, finished_at)``, in sample order.

The 4-node deployment spreads its nodes over four regions and runs at
150 requests/s, so shares beat requests (buffered) and arrive after the
combine (residual drops); DO-7-G adds Table 2's smallest global testbed.
"""

import hashlib

import pytest

from repro.sim.cluster import SimulatedThetaNetwork
from repro.sim.deployments import Deployment, get_deployment
from repro.sim.latency import Region
from repro.sim.workload import Workload

FOUR = Deployment(
    "TINY-4-G", "tiny", 4, 1,
    (Region.FRA1, Region.SYD1, Region.TOR1, Region.SFO3), 64,
)
DO7 = get_deployment("DO-7-G")

WORKLOADS = {
    FOUR.acronym: (FOUR, Workload(rate=150, duration=1.0, payload_bytes=1024, seed=11)),
    DO7.acronym: (DO7, Workload(rate=60, duration=1.0, payload_bytes=256, seed=23)),
}

# (deployment, scheme, kg20_over_tob) -> (events, finished, digest)
FINGERPRINTS = {
    ("TINY-4-G", "sg02", False): (
        5534, 150, "3655282d6bd46d81e68eb7fda724b5954c4fff6f7fcbf245a05e7adf46ea9369"),
    ("TINY-4-G", "bz03", False): (
        5405, 150, "3862d7d45f0ceaf9d147009bfd9727d2600c7931314cb660853213a1f52ff75c"),
    ("TINY-4-G", "sh00", False): (
        5400, 150, "72957d04ab260aeeb6c0f44c31ecd2f513a6a16cc5862d99ba3ca75d685ef94e"),
    ("TINY-4-G", "bls04", False): (
        5422, 150, "c7513db11cb24a3a43cbf6d06c6292768cbd7a859d36c2fb9be5fb09ced6b82d"),
    ("TINY-4-G", "kg20", False): (
        9600, 150, "0c94e34443915223c798b52cc2ab13a25a4a27e19f5bdaa1af9c92bccff02b5f"),
    ("TINY-4-G", "cks05", False): (
        5540, 150, "43a9bd0f23618593d8af7988f9a352b03659f2f9d5a8c6bc7e5f3fce90f21696"),
    ("DO-7-G", "sg02", False): (
        6485, 60, "a94eb50c84bd22f1bef06f96fbad59e40279ca7dddc5d2985d53e41cd07edf07"),
    ("DO-7-G", "bz03", False): (
        6347, 60, "57806238fe96e15d57a63695a4d36a923c48c09c211d9e215d13523c851cb45c"),
    ("DO-7-G", "sh00", False): (
        6301, 60, "1b86f421a44d9853b18b2c1e08d11666cce70b9ae11aef9e7f28fca795326771"),
    ("DO-7-G", "bls04", False): (
        6459, 60, "bde747b1703abcbe125f3a83b295f2e7d73339714775545bf206276cc55937b6"),
    ("DO-7-G", "kg20", False): (
        11760, 60, "dde320e7dbe98c4d70b272e0db31f745424f1a7df8fedcd39f0a391a9481488f"),
    ("DO-7-G", "cks05", False): (
        6496, 60, "13b765ae4c38e424f303684e35dc5f81ccf4b59cdef704c1fefeff4404719baf"),
    ("DO-7-G", "kg20", True): (
        11760, 60, "a0d62ba766b255f7f89e2ec0090c1f160db254fcf8a30112bce058a7ee5038ba"),
}


def _digest(samples) -> str:
    rows = [(s.request_id, s.node_id, s.received_at, s.finished_at) for s in samples]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "acronym,scheme,over_tob",
    sorted(FINGERPRINTS),
    ids=lambda v: v if isinstance(v, str) else ("tob" if v else "p2p"),
)
def test_fault_free_run_matches_fingerprint(acronym, scheme, over_tob):
    deployment, workload = WORKLOADS[acronym]
    result = SimulatedThetaNetwork(
        deployment, scheme, kg20_over_tob=over_tob
    ).run(workload)
    got = (result.events, len(result.request_first_finish), _digest(result.samples))
    assert got == FINGERPRINTS[(acronym, scheme, over_tob)]
