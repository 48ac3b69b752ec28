"""Import hygiene of the product tree.

``src/`` depends on the standard library, numpy and itself: networkx is a
test-only dependency (the partition oracle and the Dijkstra cross-check
use it), and the reference/oracle modules under ``tests/`` and the
benchmark harnesses are never imported by product code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PLAN_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError
import repro, repro.assignment, repro.simulation, repro.roadnet, repro.experiments
from repro.assignment import TaskPlanner
from repro.core import Task, Worker
from repro.spatial import Point

workers = [Worker(1, Point(0, 0), 3.0, 0.0, 100.0), Worker(2, Point(1, 0), 3.0, 0.0, 100.0)]
tasks = [Task(1, Point(0.5, 0.5), 0.0, 50.0), Task(2, Point(1.5, 0.5), 0.0, 50.0)]
outcome = TaskPlanner().plan(workers, tasks, 0.0)
assert outcome.planned_tasks == 2, outcome.planned_tasks
"""


def test_product_imports_and_plans_without_networkx():
    result = subprocess.run(
        [sys.executable, "-c", _PLAN_WITHOUT_NETWORKX],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_src_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} imports {root}"
                for root in roots
                if root not in allowed
            ]
    assert offenders == []
