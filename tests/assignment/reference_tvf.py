"""Scalar oracle for TVF featurisation and scoring (Eq. 11).

One (state, action) pair at a time, plain Python loops over the task
objects — the reference the product's batched
``featurize_actions_batch`` / ``TaskValueFunction.values`` must match
bit-for-bit (features) or to BLAS rounding (forward pass).  The
state-aggregate half is the product's ``featurize_state``, which is
itself scalar; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.assignment.tvf import TaskValueFunction, featurize_state
from repro.core.task import Task
from repro.core.worker import Worker
from repro.nn.tensor import Tensor, no_grad
from repro.spatial.geometry import euclidean_distance


def _action_features(
    state: dict,
    action: dict,
    workers_by_id: Dict[int, Worker],
    tasks_by_id: Dict[int, Task],
) -> np.ndarray:
    """Per-action geometry features (last 8 features)."""
    num_tasks = float(state.get("num_tasks", 0))
    worker = workers_by_id.get(action.get("worker_id"))
    action_task_ids = action.get("task_ids", ())
    action_tasks = [tasks_by_id[tid] for tid in action_task_ids if tid in tasks_by_id]
    sequence_length = float(action.get("sequence_length", len(action_task_ids)))

    if worker is not None:
        reach = worker.reachable_distance
        availability = worker.available_time
        speed = worker.speed
    else:
        reach = 0.0
        availability = 0.0
        speed = 1.0

    if worker is not None and action_tasks:
        path_length = euclidean_distance(worker.location, action_tasks[0].location)
        for a, b in zip(action_tasks, action_tasks[1:]):
            path_length += euclidean_distance(a.location, b.location)
        first_leg = euclidean_distance(worker.location, action_tasks[0].location)
        slack = float(
            np.mean([t.expiration_time - t.publication_time for t in action_tasks])
        )
    else:
        path_length = 0.0
        first_leg = 0.0
        slack = 0.0

    return np.array(
        [
            sequence_length,
            sequence_length / (num_tasks + 1.0),
            reach,
            availability,
            speed,
            path_length,
            first_leg,
            slack,
        ],
        dtype=np.float64,
    )


def featurize_state_action(
    state: dict,
    action: dict,
    workers_by_id: Dict[int, Worker],
    tasks_by_id: Dict[int, Task],
) -> np.ndarray:
    """Map a (state, action) pair to a fixed-size feature vector.

    The state contributes aggregate supply/demand statistics (how many
    workers and tasks remain, how urgent the tasks are); the action
    contributes the chosen worker's capabilities and the geometry of the
    chosen task sequence.
    """
    return np.concatenate(
        [
            featurize_state(state, tasks_by_id),
            _action_features(state, action, workers_by_id, tasks_by_id),
        ]
    )


def scalar_value(
    tvf: TaskValueFunction,
    state: dict,
    action: dict,
    workers_by_id: Dict[int, Worker],
    tasks_by_id: Dict[int, Task],
) -> float:
    """``tvf``'s predicted value of one pair, via the scalar featuriser."""
    features = featurize_state_action(state, action, workers_by_id, tasks_by_id)
    with no_grad():
        out = tvf.network(Tensor(tvf._normalize(features)[None, :]))
    return float(out.data[0, 0])
