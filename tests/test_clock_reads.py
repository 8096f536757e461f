"""Control flow runs on the event loop's clock, never on the wall clock.

A timer that compares ``time.monotonic()`` with a deadline while it sleeps
on ``loop.time()`` cannot be driven by a virtual event loop (ROADMAP 11).
This test lists every wall-clock read in ``src/repro/{core,network,service}``
and fails on one the allow-list below does not name, or on an allow-list
entry whose read is gone.  Pure metrics may keep the wall clock.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("core", "network", "service")
WALL_CLOCKS = {"monotonic", "time", "perf_counter"}

_INSTANCE_TIMES = (
    "InstanceRecord's created_at/finished_at carry the server-side latency; "
    "they move to the loop's clock in ROADMAP 11"
)

#: (file, enclosing class/function, clock) → why it may read the wall clock.
ALLOWED = {
    ("core/orchestration/executor.py", "ProtocolExecutor._close_round", "perf_counter"):
        "repro_tri_round_seconds metric",
    ("core/orchestration/executor.py", "ProtocolExecutor._start_round", "perf_counter"):
        "repro_tri_round_seconds metric",
    ("core/orchestration/instance.py", "InstanceRecord", "monotonic"): _INSTANCE_TIMES,
    ("core/orchestration/instance.py", "InstanceRecord.mark_finished", "monotonic"):
        _INSTANCE_TIMES,
    ("core/orchestration/instance.py", "InstanceRecord.mark_failed", "monotonic"):
        _INSTANCE_TIMES,
    ("service/server.py", "RpcServer._handle_line", "perf_counter"):
        "repro_rpc_latency_seconds metric",
    ("service/server.py", "RpcServer._dispatch_inner", "monotonic"):
        "the latency a protocol-API reply reports; nothing waits on it",
}


class _ClockReads(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: set[tuple[str, str]] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Attribute(self, node):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in WALL_CLOCKS
        ):
            self.found.add((".".join(self.scope), node.attr))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCKS:
                    self.found.add((".".join(self.scope), alias.name))


def _clock_reads(root: Path) -> set[tuple[str, str, str]]:
    reads = set()
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            visitor = _ClockReads()
            visitor.visit(ast.parse(path.read_text()))
            name = path.relative_to(root).as_posix()
            reads |= {(name, scope, clock) for scope, clock in visitor.found}
    return reads


def test_every_wall_clock_read_is_allowed():
    reads = _clock_reads(SRC)
    assert reads - set(ALLOWED) == set(), "read the loop's clock: loop.time()"
    assert set(ALLOWED) - reads == set(), "allowed, but no longer read: drop it"


def test_a_wall_clock_deadline_is_caught(tmp_path):
    planted = tmp_path / "core" / "pacing.py"
    planted.parent.mkdir()
    planted.write_text(
        "import time\n"
        "class Pacer:\n"
        "    async def pace(self):\n"
        "        return time.monotonic() - self.last_busy < 0.25\n"
    )
    assert _clock_reads(tmp_path) == {("core/pacing.py", "Pacer.pace", "monotonic")}
