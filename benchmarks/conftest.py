"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (``ExperimentScale.quick`` by default) and prints the same rows /
series the paper reports, so the qualitative shape — which method wins,
by roughly what factor, where the curves bend — can be compared directly.

Set the environment variable ``REPRO_BENCH_SCALE`` to ``default`` or
``paper`` to run larger versions of the same sweeps.

Everything a benchmark session writes — the printed tables and the perf
suite's numbers — lands in the git-ignored ``benchmarks/out/``; running
the benchmarks never touches a tracked file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.config import ExperimentScale  # noqa: E402


def _selected_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if name == "paper":
        return ExperimentScale.paper()
    if name == "default":
        return ExperimentScale.default()
    scale = ExperimentScale.quick()
    # Benchmarks should finish in minutes: shrink the workload but keep the
    # replanning cadence fine enough for the strategies to differentiate.
    scale.workload_scale = 0.03
    scale.grid_rows = 5
    scale.grid_cols = 5
    scale.history = 4
    scale.epochs = 3
    scale.replan_interval = 20.0
    return scale


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return _selected_scale()


@pytest.fixture(scope="session")
def yueche_workload(bench_scale):
    from repro.datasets.yueche import generate_yueche

    return generate_yueche(scale=bench_scale.workload_scale, seed=11)


@pytest.fixture(scope="session")
def didi_workload(bench_scale):
    from repro.datasets.didi import generate_didi

    return generate_didi(scale=bench_scale.workload_scale, seed=23)


#: Capture manager handle so figure tables reach the real terminal (and any
#: ``tee``'d log) even though pytest captures test stdout by default.
_CAPTURE_MANAGER = [None]

#: Where a benchmark session writes (git-ignored).
OUTPUT_DIR = Path(__file__).resolve().parent / "out"

#: File that accumulates every printed table of the benchmark session.
RESULTS_FILE = OUTPUT_DIR / "figures.txt"

#: The perf suite's fresh numbers; ``benchmarks/perf/check_regression.py``
#: compares it against the committed ``BENCH_planning.json`` baseline.
PERF_FILE = OUTPUT_DIR / "BENCH_planning.json"


def pytest_configure(config):
    _CAPTURE_MANAGER[0] = config.pluginmanager.getplugin("capturemanager")
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    RESULTS_FILE.write_text("")


@pytest.fixture(scope="session")
def perf_results():
    """Section name -> numbers of this session's perf benchmarks.

    The one writer of the perf suite: sections are merged over the previous
    fresh file at session end, so running a single module refreshes its own
    sections and keeps everybody else's.
    """
    sections: dict = {}
    yield sections
    if sections:
        merged = json.loads(PERF_FILE.read_text()) if PERF_FILE.exists() else {}
        merged.update(sections)
        PERF_FILE.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def cold_strategy(strategy):
    """``strategy`` with its planner's cache dropped before every plan: the
    full-replan reference of the platform benchmarks (``reset_cache()``
    leaves the engine exactly as a new one starts; the reset sits inside
    the platform's replan timer, as the empty engine of a cold plan did)."""
    warm_plan = strategy.plan

    def plan(idle_workers, pending_tasks, now):
        strategy.planner.reset_cache()
        return warm_plan(idle_workers, pending_tasks, now)

    strategy.plan = plan
    return strategy


def print_figure(title: str, rows, columns) -> None:
    """Print a figure's series as an aligned table (the paper's rows).

    The table is echoed to the real terminal (bypassing pytest's capture) and
    appended to ``benchmarks/out/figures.txt`` so a ``tee``'d benchmark
    log and the results file both contain every reproduced series.
    """
    from repro.experiments.reporting import format_table

    text = "\n" + format_table(rows, columns, title=title) + "\n"
    capman = _CAPTURE_MANAGER[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(text)
    else:
        print(text)
    with open(RESULTS_FILE, "a") as handle:
        handle.write(text)


@pytest.fixture(scope="session")
def yueche_experiment(bench_scale):
    """Assignment-experiment driver for the Yueche-like workload.

    Session-scoped so the DDGNN demand predictor is trained once and shared
    by every figure benchmark.
    """
    from repro.experiments.assignment_experiments import AssignmentExperiment

    experiment = AssignmentExperiment(dataset="yueche", scale=bench_scale, delta_t=30.0, k=3)
    experiment.predicted_tasks()
    return experiment


@pytest.fixture(scope="session")
def didi_experiment(bench_scale):
    """Assignment-experiment driver for the DiDi-like workload."""
    from repro.experiments.assignment_experiments import AssignmentExperiment

    experiment = AssignmentExperiment(dataset="didi", scale=bench_scale, delta_t=30.0, k=3)
    experiment.predicted_tasks()
    return experiment


def run_assignment_figure(experiment, parameter: str, values, methods, title: str) -> list:
    """Run one Fig. 7-11 sweep and print its two panels (assigned, CPU)."""
    rows = experiment.run_sweep(parameter, values, methods=methods)
    dicts = [row.as_dict() for row in rows]
    from repro.experiments.reporting import pivot_rows

    assigned = pivot_rows(dicts, index="value", column="method", value="assigned_tasks")
    cpu = pivot_rows(dicts, index="value", column="method", value="mean_cpu_time")
    print_figure(f"{title} — number of assigned tasks", assigned, ["value", *methods])
    print_figure(f"{title} — CPU time per planning instance (s)", cpu, ["value", *methods])
    return rows
