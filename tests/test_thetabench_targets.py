"""Every product function the benchmark's tracer wraps still exists.

``benchmarks/thetabench/tracing.py`` wraps product methods by name
(``vars(owner)[attribute]``), so renaming one — say
``ChaCha20Poly1305.decrypt`` or ``DecryptOperation.combine`` — breaks the
trace pass.  This reads the benchmark's own target list without changing
it and fails here, in the unit tests, instead of in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

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
