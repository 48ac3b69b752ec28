#!/usr/bin/env python3
"""Prediction ablation on ``didi_datawa``: which forecast lets DATA-WA win.

    python3 benchmarks/prediction_ablation.py    # ~1-2 min; writes benchmarks/out/prediction_ablation.txt

Replays the ``didi_datawa`` stream of the default seed (0) and the held-out
seed (1) of ``benchmarks/e2e`` with DTA, DTA+TP and DATA-WA, each shown one
of four sets of predicted tasks, and prints the real tasks served with the
ratio to DTA -- nine rows per seed:

* none;
* the benchmark's DDGNN set: the top slot of every second evaluation window
  (``demandstage.run_demand_stage``, one replica);
* a *perfect* set of the same size (:func:`perfect_predictions`);
* every future real task, mirrored.

Every replay goes through ``workloads.make_platform``, so it has the
benchmark's forecast lead (a predicted task is shown from 60 s before its
publication) and the shipped ``PlannerConfig``.  Only ``benchmarks/e2e``
modules are imported; nothing there changes.

Not named ``test_*.py``: pytest does not collect it.  The planner-side fact
of the table is asserted in ``test_ablation_prediction.py``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import Dict, List, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(_HERE, "e2e"), os.path.join(os.path.dirname(_HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import demandstage  # noqa: E402
import workloads  # noqa: E402

from repro.core.task import Task  # noqa: E402
from repro.experiments.reporting import format_table  # noqa: E402

WORKLOAD = workloads.WORKLOADS["didi_datawa"]
SEEDS = (WORKLOAD.seed, WORKLOAD.heldout_seed)
#: Ids of mirrored tasks start here, clear of every real task id.
FIRST_PREDICTED_ID = 7_000_000
OUTPUT = os.path.join(_HERE, "out", "prediction_ablation.txt")


def perfect_predictions(tasks: Sequence[Task], count: int = workloads.PREDICTED_TASKS) -> List[Task]:
    """Every ``len(tasks) // count``-th real task by publication time, up to
    ``count``, mirrored as a predicted task: a new id, the same location,
    publication and expiration.  ``count=len(tasks)`` mirrors them all."""
    ordered = sorted(tasks, key=lambda task: (task.publication_time, task.task_id))
    stride = max(1, len(ordered) // count)
    return [
        dataclasses.replace(task, task_id=FIRST_PREDICTED_ID + index, predicted=True)
        for index, task in enumerate(ordered[::stride][:count])
    ]


def served(inputs: workloads.Inputs, strategy: str, predicted: List[Task]) -> int:
    """Real tasks ``strategy`` serves on ``inputs`` when shown ``predicted``."""
    inputs.predicted_tasks = predicted
    platform, _ = workloads.make_platform(WORKLOAD, inputs, lambda inner: inner, strategy=strategy)
    try:
        return platform.run().assigned_tasks
    finally:
        platform.close()


def ablation_rows(seed: int) -> List[Dict[str, object]]:
    """The nine rows of one seed."""
    inputs = WORKLOAD.build(seed, 1.0)
    real = inputs.instance.tasks
    ddgnn = demandstage.run_demand_stage(inputs, seed, deadline=0.0, at_least=1).predicted
    forecasts = {
        "none": [],
        f"DDGNN top-{len(ddgnn)}": ddgnn,
        f"perfect {workloads.PREDICTED_TASKS}": perfect_predictions(real),
        "every future task": perfect_predictions(real, count=len(real)),
    }
    dta = served(inputs, "DTA", [])
    rows = [{"seed": seed, "strategy": "DTA", "predicted tasks": "none", "served": dta, "vs DTA": 1.0}]
    for name, predicted in forecasts.items():
        for strategy in ("DTA+TP", "DATA-WA"):
            count = served(inputs, strategy, predicted)
            rows.append({
                "seed": seed,
                "strategy": strategy,
                "predicted tasks": name,
                "served": count,
                "vs DTA": round(count / dta, 3),
            })
    return rows


def main() -> int:
    rows = [row for seed in SEEDS for row in ablation_rows(seed)]
    columns = ["seed", "strategy", "predicted tasks", "served", "vs DTA"]
    text = format_table(rows, columns, title="didi_datawa: real tasks served by forecast") + "\n"
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(text, end="")
    print(f"written to {os.path.relpath(OUTPUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
