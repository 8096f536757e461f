"""Every module and every symbol under ``src/repro/`` has an owner.

A module is owned when a daemon entry point imports it (statically, lazy
imports inside functions included) or when ``OWNERS`` says what claims it:
a paper section, an EXPERIMENTS.md row or a benchmark, naming the files
that show the claim.  A module that is neither fails here, and so does an
``OWNERS`` row for a module the daemons now reach, because that row no
longer says why the module is kept.  The same rule holds one level down:
a top-level function or class, or a non-dunder method, is owned when its
name appears outside its own definition somewhere in ``src/``, ``tools/``,
``benchmarks/`` or ``examples/``, or when ``SYMBOL_OWNERS`` says what keeps
it.  DESIGN.md's "Repository layout" block is checked against the same
tree, and the options a deployment can set (``NodeConfig``, the daemon's
flags) against a pinned budget.
"""

import ast
import dataclasses
import inspect
import modulefinder
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.service.daemon",)

_SIM = (
    "§4 simulator: Figs. 4/5 and Tables 2/4 (`EXPERIMENTS.md`, "
    "`benchmarks/bench_fig4_capacity.py`, `benchmarks/bench_table4_summary.py`)"
)
_CHAIN = (
    "Fig. 1's host platform (`tests/test_fig1_deployment.py`, "
    "`examples/blockchain_integration.py`)"
)

#: Module → what keeps it, for every module no daemon imports.
OWNERS = {
    "repro.sim": _SIM,
    "repro.sim.cli": _SIM,
    "repro.sim.cluster": _SIM,
    "repro.sim.costs": _SIM,
    "repro.sim.deployments": _SIM,
    "repro.sim.events": _SIM,
    "repro.sim.experiments": _SIM,
    "repro.sim.latency": _SIM,
    "repro.sim.metrics": _SIM,
    "repro.sim.plotting": _SIM,
    "repro.sim.workload": _SIM,
    "repro.chain": _CHAIN,
    "repro.chain.state": _CHAIN,
    "repro.chain.types": _CHAIN,
    "repro.chain.validator": _CHAIN,
    "repro.network.proxy": (
        "§3.6's P2P/TOB proxy, Θ's attachment to a host platform "
        "(`examples/blockchain_integration.py`, `tests/test_proxy_integration.py`)"
    ),
    "repro.mathutils.backends": (
        "thetabench reader, goes in ROADMAP 10 (`benchmarks/thetabench/layers.py`)"
    ),
    "repro.service.cluster": (
        "§3.2's n-node Θ-network in one process, for tests, benchmarks and "
        "examples (`tests/test_service.py`, `benchmarks/bench_sim_validation.py`, "
        "`examples/randomness_beacon.py`)"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _disk_files() -> list[Path]:
    return sorted((SRC / "repro").rglob("*.py"))


@pytest.fixture(scope="module")
def closure() -> set[str]:
    """Every ``repro`` module the daemon entry point can import."""
    reached: set[str] = set()
    for entry in ENTRY_POINTS:
        finder = modulefinder.ModuleFinder(path=[str(SRC), *sys.path])
        finder.import_hook(entry)
        reached |= {name for name in finder.modules if name.split(".")[0] == "repro"}
    return reached


def test_every_module_is_imported_by_a_daemon_or_owned(closure):
    disk = {_module_name(path) for path in _disk_files()}
    claimed = closure | set(OWNERS)
    assert not disk - claimed, f"modules with no owner: {sorted(disk - claimed)}"
    assert not claimed - disk, f"owned modules not on disk: {sorted(claimed - disk)}"


def test_no_owner_row_for_a_module_a_daemon_imports(closure):
    stale = sorted(set(OWNERS) & closure)
    assert not stale, f"daemons import these; drop their OWNERS rows: {stale}"


def test_every_path_an_owner_names_exists():
    for name, owner in {**OWNERS, **SYMBOL_OWNERS}.items():
        paths = re.findall(r"`([^`]+)`", owner)
        assert paths, f"{name}: owner names no file"
        for path in paths:
            assert (ROOT / path).exists(), f"{name}: {path} does not exist"


# -- every symbol has an owner ----------------------------------------------------

_BN254_ORACLE = (
    "test oracle: BN254 tower and pairing identities "
    "(`tests/test_bn254_fields.py`, `tests/test_bn254_pairing.py`)"
)

#: Symbol → what keeps it, for every symbol that nothing in the scanned
#: trees names outside its own definition.  Test oracles count.
SYMBOL_OWNERS = {
    "repro.groups.bn254.fp._Tower.is_zero": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp2.mul_xi": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp2.is_square": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp6.mul_by_v": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp12.from_int": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp12.is_one": _BN254_ORACLE,
    "repro.groups.bn254.fp.Fp12.frobenius2": _BN254_ORACLE,
    "repro.groups.bn254.pairing._miller_loop": _BN254_ORACLE,
    "repro.groups.bn254.pairing._final_exponentiation": _BN254_ORACLE,
    "repro.mathutils.lagrange.interpolate_at": (
        "test oracle: interpolation at any x checks lagrange_coefficient "
        "off zero (`tests/test_mathutils.py`)"
    ),
    "repro.core.protocols.operations.ShareOperation.admits_unverified": (
        "test oracle: which admission mode a share operation is in "
        "(`tests/test_lazy_admission.py`)"
    ),
    "repro.chain.validator.ValidatorNode.head": _CHAIN,
    "repro.schemes.keystore.import_public_key": (
        "inverse of export_public_key, the public-key file format "
        "(`tests/test_keystore_daemon.py`, `tests/test_keystore_format.py`)"
    ),
    "repro.sim.metrics.usable_capacity": _SIM,
}

_SCANNED = ("src", "tools", "benchmarks", "examples")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _symbols(tree: ast.Module, module: str):
    """``(qualified name, node)`` for each top-level function and class,
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, _DEFS[:2]) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{method.name}", method


def _unnamed_symbols(root: Path) -> list[str]:
    """Symbols whose name appears in the scanned trees only inside their own
    definition."""
    counts: Counter[str] = Counter()
    for top in _SCANNED:
        for path in (root / top).rglob("*.py"):
            counts.update(_WORD.findall(path.read_text()))
    unnamed = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for name, node in _symbols(ast.parse(text), module):
            own = lines[node.lineno - 1 : node.end_lineno]
            if counts[node.name] == sum(_WORD.findall(line).count(node.name) for line in own):
                unnamed.append(name)
    return unnamed


@pytest.fixture(scope="module")
def unnamed() -> set[str]:
    return set(_unnamed_symbols(ROOT))


def test_every_symbol_is_named_or_owned(unnamed):
    orphans = sorted(unnamed - set(SYMBOL_OWNERS))
    assert not orphans, f"symbols nothing names, with no SYMBOL_OWNERS row: {orphans}"


def test_no_owner_row_for_a_named_or_missing_symbol(unnamed):
    stale = sorted(set(SYMBOL_OWNERS) - unnamed)
    assert not stale, f"named elsewhere or gone; drop their SYMBOL_OWNERS rows: {stale}"


def test_a_planted_unnamed_symbol_is_caught(tmp_path):
    planted = tmp_path / "src" / "repro" / "planted.py"
    planted.parent.mkdir(parents=True)
    planted.write_text(
        "def helper():\n    return 1\n\n\n"
        "class Lonely:\n    def __init__(self):\n        self.x = helper()\n\n"
        "    def lonely(self):\n        return self.lonely\n"
    )
    assert _unnamed_symbols(tmp_path) == ["repro.planted.Lonely", "repro.planted.Lonely.lonely"]


def _design_layout() -> dict[str, set[str]]:
    """Package → module files, as DESIGN.md's layout block lists them.

    Inside the fence, ``src/repro/`` opens the source tree and the next
    line that starts in column 0 closes it.  A token ending in ``/`` names a
    package relative to ``src/repro/``; ``.py`` tokens after it are that
    package's files, ``__init__.py`` implied.
    """
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## Repository layout", 1)[1].split("```")[1]
    layout: dict[str, set[str]] = {}
    package = None
    for line in block.splitlines():
        if line.startswith("src/repro/"):
            package = ""
            line = line[len("src/repro/"):]
        elif line[:1] not in ("", " "):
            package = None
        if package is None:
            continue
        for token in line.split():
            if token.endswith("/"):
                package = token.rstrip("/")
                layout.setdefault(package, set())
            else:
                layout.setdefault(package, set()).add(token)
    return layout


def test_design_layout_lists_the_tree():
    on_disk: dict[str, set[str]] = {}
    for path in _disk_files():
        package = path.parent.relative_to(SRC / "repro").as_posix()
        files = on_disk.setdefault("" if package == "." else package, set())
        if path.name != "__init__.py":
            files.add(path.name)
    assert _design_layout() == on_disk


# -- one in-process cluster builder ---------------------------------------------

_FIG1_PROXIES = "Fig. 1: each node's transport and TOB are proxies to its validator"

#: Files that may still wire ``LocalHub`` and ``ThetacryptNode`` by hand,
#: and why; everything else builds its network with ``LocalCluster``.
HAND_WIRED = {
    "examples/quickstart.py": "the documented walk-through of the three layers",
    "examples/blockchain_integration.py": _FIG1_PROXIES,
    "tests/test_fig1_deployment.py": _FIG1_PROXIES,
    "benchmarks/thetabench/": "frozen: only a benchmark PR edits it (ROADMAP 10)",
}


def _hand_wires_a_cluster(path: Path) -> bool:
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    }
    return {"LocalHub", "ThetacryptNode"} <= called


def _hand_wired_files(root: Path) -> list[str]:
    found = []
    for top in ("tests", "tools", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            name = path.relative_to(root).as_posix()
            if not name.startswith(tuple(HAND_WIRED)) and _hand_wires_a_cluster(path):
                found.append(name)
    return found


def test_only_local_cluster_wires_an_in_process_network():
    assert _hand_wired_files(ROOT) == [], (
        "build the network with repro.service.cluster.LocalCluster"
    )


def test_every_hand_wired_exception_still_applies():
    for name in HAND_WIRED:
        assert (ROOT / name).exists(), f"{name} is gone: drop its entry"
        if name.endswith(".py"):
            assert _hand_wires_a_cluster(ROOT / name), (
                f"{name} no longer wires a cluster by hand: drop its entry"
            )


def test_a_planted_copy_is_caught(tmp_path):
    planted = tmp_path / "tests" / "test_copy.py"
    planted.parent.mkdir()
    planted.write_text(
        "hub = LocalHub()\n"
        "node = ThetacryptNode(config, transport=hub.endpoint(1))\n"
    )
    assert _hand_wired_files(tmp_path) == ["tests/test_copy.py"]


# -- the options budget -----------------------------------------------------------

#: Every option a deployment can set.  A new knob fails here until its PR
#: edits the list and names, in CHANGES.md, two non-test callers that need
#: different values of it; a knob no deployment sets is deleted instead.
NODE_CONFIG_FIELDS = (
    "node_id", "parties", "threshold", "listen_host", "listen_port",
    "rpc_host", "rpc_port", "peers", "transport", "instance_timeout",
    "rpc_auth_token", "metrics_port", "data_dir", "max_pending_instances",
    "overload_retry_after",
)
DAEMON_FLAGS = ("--config", "--keystore", "--verbose")
#: A chaos scenario.  A crash is ``LocalCluster.stop``/``restart``, not a
#: field: isolating a node is a ``Partition``.
FAULT_PLAN_FIELDS = (
    "seed", "default", "links", "partitions", "byzantine", "byzantine_rate",
    "reorder_hold",
)
#: The simulator models the paper's fault-free testbed; chaos runs against
#: the real service (``LocalCluster(fault_plan=)``).
SIMULATOR_PARAMETERS = (
    "deployment", "scheme", "cost_model", "latency_model", "kg20_over_tob",
)


def test_node_config_fields_are_the_budget():
    from repro.service.config import NodeConfig

    assert tuple(f.name for f in dataclasses.fields(NodeConfig)) == NODE_CONFIG_FIELDS


def test_daemon_flags_are_the_budget():
    daemon = SRC / "repro" / "service" / "daemon.py"
    flags = tuple(
        node.args[0].value
        for node in ast.walk(ast.parse(daemon.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
    )
    assert flags == DAEMON_FLAGS


def test_fault_plan_fields_are_the_budget():
    from repro.network.faults import FaultPlan

    assert tuple(f.name for f in dataclasses.fields(FaultPlan)) == FAULT_PLAN_FIELDS


def test_simulator_parameters_are_the_budget():
    from repro.sim.cluster import SimulatedThetaNetwork

    parameters = tuple(inspect.signature(SimulatedThetaNetwork).parameters)
    assert parameters == SIMULATOR_PARAMETERS


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the ``repro`` modules one file imports."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_the_simulator_does_not_import_the_network_layer():
    offenders = {
        _module_name(path): sorted(
            name for name in _imported_modules(path)
            if name == "repro.network" or name.startswith("repro.network.")
        )
        for path in sorted((SRC / "repro" / "sim").rglob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}
