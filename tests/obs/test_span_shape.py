"""What the plan pipeline shows an observer, pinned call by call.

The plan pipeline opens its phase spans (``diff``, ``refresh``,
``decompose``, ``dispatch`` with its ``component.search`` children,
``merge``) and bumps its ``incremental.*`` counters once per call.
Operators, the trace report and the benchmark harness read those spans by
name, nesting and attributes, so a refactor of the pipeline must leave
them exactly as they are.  This module digests, for every ``plan()``
call, the ordered list of trace records the call emits -- ``(span name,
parent name, sorted attribute items)`` with the ``id`` / ``parent`` ids
and all timing left out, instants likewise -- together with the call's
counter deltas and registry-op count, and compares one SHA-256 per case
with the committed one.

``test_plan_enters_each_phase_once`` pins ``plan()``'s phase contract
directly: an empty snapshot emits no phase span, any other emits each
phase span once, in order.

Cases: a Yueche-style per-event stream replayed through the platform,
and one dense snapshot (contested multi-worker components) planned cold,
warm, past its deadline, TVF-guided, while collecting experience, and
through the self-check's repair path.

A digest that moves means a span, attribute, counter or their order
changed.  Re-record (run this file as a script) only for a change meant
to alter what the trace shows, and say so.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys

import pytest

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.strategies import DTAStrategy
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.yueche import generate_yueche
from repro.obs import Observability, ObservabilityConfig
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

#: ``(plan calls, sha256 of their records)`` per case.
GOLDEN = {
    "dense_cold": (1, "e563aa1e694d5ef78c2977f776f5831e8c08371fadee37e8b8e2248cfe65c6ee"),
    "dense_deadline": (1, "231665e0024d802fcb0cd97a7297a99b1e51b99589714199f952e3c2260a0668"),
    "dense_experience": (1, "ef37f122face47c5c4487f94933dde62930961218645a3f8444cf458ac393a39"),
    "dense_repair": (1, "cf58c0501be580d202c7135458242b0b9d2310f4efcb9968be0cf5ff40002ab3"),
    "dense_tvf": (1, "23ded8819be9b3eab1a7a54bf5a4a69b76593063128943220bdab4798ef3dd17"),
    "dense_warm": (1, "d09b9f5c86beb7cdce9a14e632fdad3c464b86da054be8266139d7bc6a87bb33"),
    "yueche_stream": (237, "76c34cb2b3777194fc8ca95932eb581266ffd53d7436659e0715422f993e9649"),
}

#: Span arguments that identify rather than describe a span.
_IDS = ("id", "parent")


class _CallRecorder:
    """Wraps ``TaskPlanner.plan`` to note, per call, which trace records
    and counter deltas it produced."""

    def __init__(self, monkeypatch) -> None:
        self.obs = None
        self.calls = []
        original = TaskPlanner.plan

        def plan(planner, *args, **kwargs):
            obs = self.obs = planner.obs
            records = obs.tracer._records
            before = dict(obs.registry.snapshot()["counters"])
            start, ops = len(records), obs.ops
            try:
                return original(planner, *args, **kwargs)
            finally:
                after = obs.registry.snapshot()["counters"]
                deltas = sorted(
                    (name, value - before.get(name, 0.0))
                    for name, value in after.items()
                    if value != before.get(name, 0.0)
                )
                self.calls.append((start, len(records), deltas, obs.ops - ops))

        monkeypatch.setattr(TaskPlanner, "plan", plan)

    def digest(self):
        """``(calls, sha256)`` over every recorded call's shape."""
        events = self.obs.tracer.events
        names = {
            event["args"]["id"]: event["name"] for event in events if event.get("ph") == "X"
        }
        shapes = []
        for start, end, deltas, ops in self.calls:
            emitted = []
            for event in events[start:end]:
                args = event["args"]
                items = sorted((k, v) for k, v in args.items() if k not in _IDS)
                if event["ph"] == "X":
                    emitted.append(["X", event["name"], names.get(args["parent"]), items])
                else:
                    emitted.append([event["ph"], event["name"], items])
            shapes.append([emitted, deltas, ops])
        text = json.dumps(shapes, sort_keys=True, separators=(",", ":"))
        return len(shapes), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dense_snapshot():
    """Two blocks of four workers and 18 tasks each (two contested
    components), a lone worker with two tasks in reach (a one-worker
    component) and a worker with nothing in reach."""
    rng = random.Random(7)
    workers, tasks = [], []
    for block, (cx, cy) in enumerate(((2.0, 2.0), (8.0, 8.0))):
        for i in range(4):
            workers.append(
                Worker(
                    10 * block + i,
                    Point(cx + rng.uniform(-0.4, 0.4), cy + rng.uniform(-0.4, 0.4)),
                    1.2,
                    0.0,
                    200.0,
                )
            )
        for j in range(18):
            tasks.append(
                Task(
                    100 * (block + 1) + j,
                    Point(cx + rng.uniform(-0.6, 0.6), cy + rng.uniform(-0.6, 0.6)),
                    0.0,
                    rng.uniform(3.0, 12.0),
                )
            )
    workers.append(Worker(30, Point(5.0, 0.5), 1.2, 0.0, 200.0))
    workers.append(Worker(40, Point(0.0, 9.5), 1.2, 0.0, 200.0))
    tasks.append(Task(301, Point(5.3, 0.6), 0.0, 9.0))
    tasks.append(Task(302, Point(4.6, 0.2), 0.0, 7.0))
    return workers, tasks


def _yueche_stream(monkeypatch):
    workload = generate_yueche(scale=0.02, seed=11)
    platform = SCPlatform(
        workload.instance,
        DTAStrategy(config=PlannerConfig()),
        PlatformConfig(replan_interval=0.0, observability=ObservabilityConfig()),
    )
    recorder = _CallRecorder(monkeypatch)
    platform.run()
    return recorder.digest()


def _dense(monkeypatch, case):
    workers, tasks = _dense_snapshot()
    config = {
        "dense_deadline": PlannerConfig(deadline_s=0.0),
        "dense_tvf": PlannerConfig(use_tvf=True, tvf_min_workers=2),
    }.get(case, PlannerConfig())
    planner = TaskPlanner(config, travel=EuclideanTravelModel(speed=1.0))
    obs = Observability()
    planner.attach_observability(obs)
    if case == "dense_experience":
        recorder = _CallRecorder(monkeypatch)
        planner.plan(workers, tasks, 0.5, collect_experience=True)
        return recorder.digest()
    if case in ("dense_warm", "dense_repair"):
        planner.plan(workers, tasks, 0.5)  # fills the caches, not recorded
        if case == "dense_repair":
            entry = next(iter(planner._engine._worker_entries.values()))
            entry.reach_horizon = math.nan
    recorder = _CallRecorder(monkeypatch)
    planner.plan(workers, tasks, 0.5)
    return recorder.digest()


def _shape(monkeypatch, case):
    if case == "yueche_stream":
        return _yueche_stream(monkeypatch)
    return _dense(monkeypatch, case)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_span_shape_matches_golden(monkeypatch, case):
    assert _shape(monkeypatch, case) == GOLDEN[case]


#: The phase spans of one plan call, in the order plan() runs them.
PHASES = ["diff", "refresh", "decompose", "dispatch", "merge"]


@pytest.mark.parametrize("snapshot", ["no_workers", "only_expired_tasks", "planned"])
def test_plan_enters_each_phase_once(snapshot):
    """An empty snapshot returns the empty outcome before any phase; any
    other enters every phase exactly once, in order."""
    workers, tasks = _dense_snapshot()
    if snapshot == "no_workers":
        workers = []
    elif snapshot == "only_expired_tasks":
        tasks = [task for task in tasks if task.is_expired(20.0)]
        assert tasks
    now = 20.0 if snapshot == "only_expired_tasks" else 0.5
    planner = TaskPlanner(PlannerConfig(), travel=EuclideanTravelModel(speed=1.0))
    obs = Observability()
    planner.attach_observability(obs)
    outcome = planner.plan(workers, tasks, now)
    spans = [e for e in obs.tracer.events if e["ph"] == "X"]
    phases = [e["name"] for e in spans if e["args"]["parent"] is None]
    if snapshot == "planned":
        assert phases == PHASES
        assert outcome.planned_tasks > 0
        return
    assert spans == [] and obs.ops == 0
    fields = (
        list(outcome.assignment), outcome.planned_tasks, outcome.nodes_expanded,
        outcome.num_components, outcome.experience, outcome.reused_workers,
        outcome.recomputed_workers, outcome.reused_components,
        outcome.searched_components, outcome.rung, outcome.deadline_hit, outcome.repairs,
    )
    assert fields == ([], 0, 0, 0, [], 0, 0, 0, 0, "full", False, 0)


if __name__ == "__main__":
    # Print the goldens of this tree, one line per case, for GOLDEN.
    patcher = pytest.MonkeyPatch()
    for name in sorted(GOLDEN):
        with patcher.context() as patch:
            calls, digest = _shape(patch, name)
        sys.stdout.write(f'    "{name}": ({calls}, "{digest}"),\n')
