"""Task Value Function (Section IV-B, Eq. 11–12).

The TVF estimates the long-term value (expected total number of assigned
tasks) of taking an action — assigning a particular maximal valid task
sequence to a particular worker — in a given state (remaining workers and
tasks).  Training data ``U`` is produced by the exact DFSearch (Alg. 1);
the network is fitted with the Q-learning regression loss of Eq. 12 on
mini-batches drawn uniformly at random from ``U``.

Featurization is split into two passes so online scoring stays off the
per-action Python path: :func:`featurize_state` computes the aggregate
supply/demand statistics once per state, and :func:`featurize_actions_batch`
computes the per-action geometry for *all* candidate actions of that state
as one NumPy batch.  A per-pair scalar featuriser lives on the tests' side
(``tests/assignment/reference_tvf.py``) as the reference the batch path
must match bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.task import Task
from repro.core.worker import Worker
from repro.nn.tensor import Tensor, no_grad

#: Dimensionality of the hand-crafted state-action feature vector.
FEATURE_DIM = 14

#: How many of the leading features depend only on the state.
STATE_FEATURE_DIM = 6


@dataclass
class Experience:
    """A single ``(s_t, a_t, opt)`` training sample."""

    state: dict
    action: dict
    value: float


def featurize_state(state: dict, tasks_by_id: Dict[int, Task]) -> np.ndarray:
    """Aggregate supply/demand statistics of a state (first 6 features).

    Computed once per state and shared by every candidate action scored in
    that state.  All features are scale-stabilised (log1p or ratios) so a
    single network generalises across instance sizes.
    """
    num_workers = float(state.get("num_workers", 0))
    num_tasks = float(state.get("num_tasks", 0))
    remaining_task_ids = state.get("task_ids", ())
    remaining_tasks = [tasks_by_id[tid] for tid in remaining_task_ids if tid in tasks_by_id]

    if remaining_tasks:
        valid_durations = [t.valid_duration for t in remaining_tasks]
        mean_valid = float(np.mean(valid_durations))
        xs = [t.location.x for t in remaining_tasks]
        ys = [t.location.y for t in remaining_tasks]
        spread = float(np.std(xs) + np.std(ys))
    else:
        mean_valid = 0.0
        spread = 0.0

    return np.array(
        [
            np.log1p(num_workers),
            np.log1p(num_tasks),
            num_tasks / (num_workers + 1.0),
            np.log1p(len(remaining_tasks)),
            mean_valid,
            spread,
        ],
        dtype=np.float64,
    )


class StateFeatureCache:
    """Vectorized :func:`featurize_state` over a fixed task universe.

    The TVF-guided search featurizes a shrinking remaining-task state at
    every tree node; resolving each task object and its attributes in
    Python again and again dominated scoring cost.  This cache extracts the
    per-task columns (valid duration, coordinates) once, then serves each
    state with one fancy-indexed gather — the reductions run over the same
    float64 values in the same order as the reference, so the resulting
    features are bit-for-bit identical.
    """

    def __init__(self, tasks_by_id: Dict[int, Task]) -> None:
        self._position = {tid: i for i, tid in enumerate(tasks_by_id)}
        tasks = list(tasks_by_id.values())
        self._valid = np.array([t.valid_duration for t in tasks], dtype=np.float64)
        self._xs = np.array([t.location.x for t in tasks], dtype=np.float64)
        self._ys = np.array([t.location.y for t in tasks], dtype=np.float64)

    def features(self, state: dict) -> np.ndarray:
        num_workers = float(state.get("num_workers", 0))
        num_tasks = float(state.get("num_tasks", 0))
        position = self._position
        rows = [position[tid] for tid in state.get("task_ids", ()) if tid in position]
        if rows:
            idx = np.array(rows, dtype=np.intp)
            mean_valid = float(np.mean(self._valid[idx]))
            spread = float(np.std(self._xs[idx]) + np.std(self._ys[idx]))
        else:
            mean_valid = 0.0
            spread = 0.0
        return np.array(
            [
                np.log1p(num_workers),
                np.log1p(num_tasks),
                num_tasks / (num_workers + 1.0),
                np.log1p(len(rows)),
                mean_valid,
                spread,
            ],
            dtype=np.float64,
        )


def featurize_actions_batch(
    state: dict,
    actions: Sequence[dict],
    workers_by_id: Dict[int, Worker],
    tasks_by_id: Dict[int, Task],
    state_features: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Feature matrix (N, FEATURE_DIM) for all candidate actions of a state.

    The state-aggregate pass runs once; the per-action geometry (path
    length, first leg, slack) is computed with vectorized NumPy over the
    whole batch.  Rows are bit-for-bit identical to the scalar reference
    featuriser (``tests/assignment/reference_tvf.py``) on each pair.
    """
    actions = list(actions)
    if not actions:
        return np.empty((0, FEATURE_DIM), dtype=np.float64)
    if state_features is None:
        state_features = featurize_state(state, tasks_by_id)
    num_actions = len(actions)
    num_tasks = float(state.get("num_tasks", 0))

    action_features = np.zeros((num_actions, FEATURE_DIM - STATE_FEATURE_DIM), dtype=np.float64)

    resolved: List[Tuple[Optional[Worker], List[Task]]] = []
    max_len = 0
    for index, action in enumerate(actions):
        worker = workers_by_id.get(action.get("worker_id"))
        action_task_ids = action.get("task_ids", ())
        tasks = [tasks_by_id[tid] for tid in action_task_ids if tid in tasks_by_id]
        resolved.append((worker, tasks))
        if worker is not None:
            max_len = max(max_len, len(tasks))
        sequence_length = float(action.get("sequence_length", len(action_task_ids)))
        action_features[index, 0] = sequence_length
        action_features[index, 1] = sequence_length / (num_tasks + 1.0)
        if worker is not None:
            action_features[index, 2] = worker.reachable_distance
            action_features[index, 3] = worker.available_time
            action_features[index, 4] = worker.speed
        else:
            action_features[index, 4] = 1.0

    if max_len > 0:
        # Padded coordinate tensor: row = [worker, task_1, ..., task_L]; the
        # pad repeats the last real point so padded legs have length 0 and
        # the sequential accumulation matches the scalar loop exactly.
        coords = np.zeros((num_actions, max_len + 1, 2), dtype=np.float64)
        lengths = np.zeros(num_actions, dtype=np.intp)
        slack_vals = np.zeros((num_actions, max_len), dtype=np.float64)
        for index, (worker, tasks) in enumerate(resolved):
            if worker is None or not tasks:
                continue
            lengths[index] = len(tasks)
            coords[index, 0] = (worker.location.x, worker.location.y)
            for t_index, task in enumerate(tasks):
                coords[index, t_index + 1] = (task.location.x, task.location.y)
                slack_vals[index, t_index] = task.expiration_time - task.publication_time
            for t_index in range(len(tasks), max_len):
                coords[index, t_index + 1] = coords[index, len(tasks)]

        deltas = coords[:, 1:, :] - coords[:, :-1, :]
        legs = np.sqrt(deltas[:, :, 0] ** 2 + deltas[:, :, 1] ** 2)
        has_path = lengths > 0
        # Accumulate left-to-right (like the scalar += loop) so float
        # rounding matches the scalar reference bit-for-bit; zero pads
        # are exact no-ops.
        path_length = legs[:, 0].copy()
        for leg_index in range(1, max_len):
            path_length += legs[:, leg_index]
        if max_len < 8:
            # np.mean reduces sequentially below numpy's 8-way unrolling
            # threshold, so a column-wise sequential sum is bit-identical.
            slack_total = slack_vals[:, 0].copy()
            for leg_index in range(1, max_len):
                slack_total += slack_vals[:, leg_index]
            slack_mean = slack_total / np.maximum(lengths, 1)
        else:  # long sequences: defer to np.mean per row for exactness
            slack_mean = np.zeros(num_actions, dtype=np.float64)
            for row in np.flatnonzero(has_path):
                slack_mean[row] = np.mean(slack_vals[row, : lengths[row]])
        action_features[has_path, 5] = path_length[has_path]
        action_features[has_path, 6] = legs[has_path, 0]
        action_features[has_path, 7] = slack_mean[has_path]

    features = np.empty((num_actions, FEATURE_DIM), dtype=np.float64)
    features[:, :STATE_FEATURE_DIM] = state_features
    features[:, STATE_FEATURE_DIM:] = action_features
    return features


class TaskValueFunction:
    """MLP approximator of the state-action value TVF(s, a).

    Parameters
    ----------
    hidden:
        Width of the two hidden layers.
    learning_rate:
        Adam step size for the Q-learning regression.
    seed:
        Seed for weight initialisation and replay sampling.
    """

    def __init__(self, hidden: int = 32, learning_rate: float = 0.005, seed: int = 0) -> None:
        self.network = nn.Sequential(
            nn.Linear(FEATURE_DIM, hidden, seed=seed),
            nn.ReLU(),
            nn.Linear(hidden, hidden, seed=seed + 1),
            nn.ReLU(),
            nn.Linear(hidden, 1, seed=seed + 2),
        )
        self.optimizer = nn.Adam(self.network.parameters(), lr=learning_rate)
        self.criterion = nn.MSELoss()
        self._rng = np.random.default_rng(seed)
        self._feature_mean = np.zeros(FEATURE_DIM)
        self._feature_std = np.ones(FEATURE_DIM)
        self._fitted = False
        #: Bumped on every (re)fit; caches keyed on TVF outputs — like the
        #: incremental replan engine's per-component search results — use it
        #: to detect that the network's predictions may have changed.
        self.fit_version = 0

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _normalize(self, features: np.ndarray) -> np.ndarray:
        return (features - self._feature_mean) / self._feature_std

    # ------------------------------------------------------------------ #
    def fit(
        self,
        experience: Sequence[Tuple[dict, dict, float]],
        workers_by_id: Dict[int, Worker],
        tasks_by_id: Dict[int, Task],
        epochs: int = 20,
        batch_size: int = 64,
    ) -> List[float]:
        """Fit the TVF on DFSearch experience with the Eq. 12 loss.

        Returns the per-epoch loss curve.  State features are computed once
        per distinct state (DFSearch revisits states for many actions), the
        action geometry in per-state batches.
        """
        if not experience:
            raise ValueError("cannot fit the TVF on empty experience")
        features = np.empty((len(experience), FEATURE_DIM), dtype=np.float64)
        state_cache: Dict[Tuple, np.ndarray] = {}
        for row, (state, action, _) in enumerate(experience):
            cache_key = (state.get("worker_ids", ()), state.get("task_ids", ()))
            state_features = state_cache.get(cache_key)
            if state_features is None:
                state_features = featurize_state(state, tasks_by_id)
                state_cache[cache_key] = state_features
            features[row] = featurize_actions_batch(
                state, [action], workers_by_id, tasks_by_id, state_features=state_features
            )[0]
        targets = np.array([[value] for _, _, value in experience], dtype=np.float64)

        self._feature_mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std < 1e-8] = 1.0
        self._feature_std = std
        normalized = self._normalize(features)

        losses: List[float] = []
        n = normalized.shape[0]
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for begin in range(0, n, batch_size):
                idx = order[begin:begin + batch_size]
                self.optimizer.zero_grad()
                prediction = self.network(Tensor(normalized[idx]))
                loss = self.criterion(prediction, Tensor(targets[idx]))
                loss.backward()
                self.optimizer.clip_grad_norm(5.0)
                self.optimizer.step()
                epoch_loss += float(loss.item())
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        self._fitted = True
        self.fit_version += 1
        return losses

    # ------------------------------------------------------------------ #
    def values(
        self,
        state: dict,
        actions: Iterable[dict],
        workers_by_id: Dict[int, Worker],
        tasks_by_id: Dict[int, Task],
        state_features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predicted values of several candidate actions in the same state.

        One state-aggregate pass (or a precomputed one, e.g. from a
        :class:`StateFeatureCache`), one batched geometry pass, one forward
        pass — no per-action Python featurization loop.
        """
        actions = list(actions)
        if not actions:
            return np.array([])
        features = featurize_actions_batch(
            state, actions, workers_by_id, tasks_by_id, state_features=state_features
        )
        with no_grad():
            out = self.network(Tensor(self._normalize(features)))
        return out.data[:, 0]
