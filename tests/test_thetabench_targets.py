"""Everything the benchmark reads from the product still exists.

``benchmarks/thetabench/tracing.py`` wraps product methods by name
(``vars(owner)[attribute]``), so renaming one — say
``ChaCha20Poly1305.decrypt`` or ``DecryptOperation.combine`` — breaks the
trace pass.  ``measure.py`` and ``layers.py`` read ``node_stats`` keys and
scrape families of a live daemon, so dropping one breaks a benchmark run.
These tests read the benchmark's own target list without changing it, pin
the keys and families it reads, and fail here, in the unit tests, instead
of in a benchmark run.
"""

import asyncio
import importlib.util
from pathlib import Path

import pytest

from repro.service.cluster import LocalCluster
from repro.telemetry import parse_text

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks/thetabench/tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_thetabench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets()


_TARGETS = _targets()


@pytest.mark.parametrize(
    "owner,attribute",
    [(owner, attribute) for _, owner, attribute in _TARGETS],
    ids=[f"{name}:{getattr(owner, '__name__', owner)}.{attribute}"
         for name, owner, attribute in _TARGETS],
)
def test_wrap_target_resolves(owner, attribute):
    assert callable(vars(owner)[attribute])


def test_node_stats_and_scrape_carry_what_the_benchmark_reads(keys_cks05, tmp_path):
    """A durable node's ``node_stats`` and ``metrics`` replies, over RPC, as
    ``measure.py`` (``keys``, ``active``, ``recovery.results``,
    ``crypto_backend.name``) and ``layers.py`` (the fixed-base build count)
    read them."""

    async def scenario():
        async with LocalCluster({"cks05": keys_cks05}, data_root=tmp_path) as cluster:
            return await cluster.client.node_stats(1), await cluster.client.metrics(1)

    stats, text = asyncio.run(scenario())
    assert stats["keys"] == 1
    assert stats["active"] == 0
    assert stats["recovery"]["results"] == 0
    assert isinstance(stats["crypto_backend"]["name"], str)
    families = {name for name, _ in parse_text(text)}
    assert "repro_fixedbase_tables_built_total" in families
