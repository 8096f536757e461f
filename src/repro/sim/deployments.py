"""The six deployment configurations of Table 2."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .latency import Region, assign_regions

_GLOBAL_REGIONS = [Region.FRA1, Region.SYD1, Region.TOR1, Region.SFO3]


@dataclass(frozen=True)
class Deployment:
    """One row of Table 2."""

    acronym: str
    size_label: str
    parties: int
    threshold: int  # t; quorum = t + 1 (the paper's "threshold" column is t+1)
    regions: tuple[Region, ...]
    max_rate: int  # requests per second, top of the capacity sweep

    @property
    def quorum(self) -> int:
        return self.threshold + 1

    def node_regions(self) -> list[Region]:
        return assign_regions(self.parties, list(self.regions))

    def rates(self) -> list[int]:
        """The capacity-test request rates: 1, 2, 4, ... max_rate (§4.2)."""
        rates, rate = [], 1
        while rate <= self.max_rate:
            rates.append(rate)
            rate *= 2
        return rates


def _make(acronym, size_label, parties, quorum, regions, max_rate) -> Deployment:
    return Deployment(acronym, size_label, parties, quorum - 1, tuple(regions), max_rate)


#: Table 2: acronym → deployment.  The paper's "threshold" column is the
#: reconstruction quorum t+1 (3-of-7, 11-of-31, 43-of-127 under n = 3t+1).
DEPLOYMENTS: dict[str, Deployment] = {
    d.acronym: d
    for d in (
        _make("DO-7-L", "small", 7, 3, [Region.FRA1], 1024),
        _make("DO-7-G", "small", 7, 3, _GLOBAL_REGIONS, 1024),
        _make("DO-31-L", "medium", 31, 11, [Region.FRA1], 512),
        _make("DO-31-G", "medium", 31, 11, _GLOBAL_REGIONS, 512),
        _make("DO-127-L", "large", 127, 43, [Region.FRA1], 64),
        _make("DO-127-G", "large", 127, 43, _GLOBAL_REGIONS, 64),
    )
}


def get_deployment(acronym: str) -> Deployment:
    if acronym not in DEPLOYMENTS:
        raise ConfigurationError(
            f"unknown deployment {acronym!r}; known: {sorted(DEPLOYMENTS)}"
        )
    return DEPLOYMENTS[acronym]
