"""The demand half of the paper's pipeline, timed from outside.

``didi_datawa`` only.  A *replica* is one fresh ``DDGNN`` trained for
``FIT_EPOCHS`` epochs and then asked for every evaluation window.  Each
training epoch is one ``DemandTrainer.fit`` call with ``epochs=1,
patience=None`` on a persistent trainer -- same optimiser and shuffle state
as one long fit, but with a boundary the benchmark can put a clock and a
calibration bracket on.  Replicas are deterministic, so epoch *e* (and
window *w*) is the same work in each; the reported time is the median
across replicas of the normalised time, as for replans.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from hostspeed import calibration_slice, smoothed_slowdown, timed
from workloads import (
    BATCH_SIZE,
    DELTA_T,
    FIT_EPOCHS,
    HISTORY,
    K,
    PREDICTED_TASKS,
    Inputs,
)

from repro.core.task import Task
from repro.demand.ddgnn import DDGNN
from repro.demand.predictor import DemandPredictor
from repro.demand.training import DemandTrainer

#: What ``DemandPredictor`` ships with; reported beside the count the
#: benchmark actually uses (see ``workloads.PREDICTED_TASKS``).
SHIPPED_THRESHOLD = 0.85
_FIRST_PREDICTED_ID = 5_000_000
_PREDICTS_PER_SLICE = 8


@dataclass
class DemandStage:
    #: Per training epoch / per evaluation window, seconds at reference
    #: speed, median across replicas.
    fit_epoch_s: List[float]
    predict_s: List[float]
    #: One loss curve per replica (must be finite and identical).
    losses: List[List[float]]
    predicted: List[Task]
    shipped_threshold_tasks: int
    replicas: int
    model: DDGNN

    @property
    def fit_s(self) -> float:
        return sum(self.fit_epoch_s)

    @property
    def predict_total_s(self) -> float:
        return sum(self.predict_s)

    @property
    def seconds(self) -> float:
        return self.fit_s + self.predict_total_s

    def check(self) -> List[str]:
        problems = []
        if not all(math.isfinite(x) for curve in self.losses for x in curve):
            problems.append("DDGNN loss curve is not finite")
        if any(curve != self.losses[0] for curve in self.losses):
            problems.append("DDGNN loss curves differ between replicas")
        return problems


def _replica(inputs: Inputs, seed: int, limit: Optional[int]):
    demand = inputs.demand
    train_inputs = demand.train_inputs[:limit]
    train_targets = demand.train_targets[:limit]
    model = DDGNN(num_cells=demand.grid.num_cells, k=K, history=HISTORY, seed=seed)
    trainer = DemandTrainer(
        model, epochs=1, batch_size=BATCH_SIZE, patience=None, seed=seed
    )
    fit_s, losses = [], []
    for _ in range(FIT_EPOCHS):
        result, seconds = timed(
            lambda: trainer.fit(train_inputs, train_targets)
        )
        fit_s.append(seconds)
        losses.append(result.final_loss)
    predictor = DemandPredictor(
        model,
        demand.grid,
        delta_t=DELTA_T,
        threshold=SHIPPED_THRESHOLD,
        task_valid_duration=inputs.workload.config.task_valid_time,
        historical_tasks=inputs.workload.historical_tasks,
    )
    # A forward pass takes ~1 ms, about as long as a calibration slice:
    # one slice per _PREDICTS_PER_SLICE windows instead of a bracket each.
    series = demand.series
    slices = [calibration_slice()]
    raw, latest, windows = [], [], []
    for index in range(demand.eval_start, series.num_windows)[:limit]:
        if len(raw) % _PREDICTS_PER_SLICE == 0 and raw:
            slices.append(calibration_slice())
        start = time.perf_counter()
        window = predictor.predict_window(
            series.values[index - HISTORY: index], series.window_start(index)
        )
        raw.append(time.perf_counter() - start)
        latest.append(len(slices) - 1)
        windows.append(window)
    slices.append(calibration_slice())
    speed = smoothed_slowdown(slices)
    predict_s = [seconds / speed[k] for seconds, k in zip(raw, latest)]
    return model, predictor, fit_s, losses, predict_s, windows


def run_demand_stage(
    inputs: Inputs,
    seed: int,
    deadline: float,
    at_least: int = 2,
    limit: Optional[int] = None,
) -> DemandStage:
    """Fit + predict replicas until ``deadline`` (a ``perf_counter``
    instant), at least ``at_least``; fills ``inputs.predicted_tasks``.
    ``limit`` caps training samples and evaluation windows (warm-up)."""
    fits, predicts, losses = [], [], []
    while True:
        started = time.perf_counter()
        model, predictor, fit_s, curve, predict_s, windows = _replica(inputs, seed, limit)
        fits.append(fit_s)
        predicts.append(predict_s)
        losses.append(curve)
        took = time.perf_counter() - started
        if len(fits) >= at_least and time.perf_counter() + took > deadline:
            break

    # One predicted task from every stride-th evaluation window: the
    # window's most likely (cell, interval) slot.  See workloads.py on why
    # the count and the spacing are inputs, not outcomes of the threshold.
    probabilities = np.concatenate([w.probabilities.ravel() for w in windows])
    stride = max(1, len(windows) // PREDICTED_TASKS)
    predicted: List[Task] = []
    next_id = _FIRST_PREDICTED_ID
    for window in windows[::stride][:PREDICTED_TASKS]:
        # [:1]: several slots can tie at the top probability.
        tasks = predictor.materialize_tasks(
            window, next_id, threshold=float(window.probabilities.max())
        )[:1]
        next_id += 1
        predicted.extend(tasks)
    inputs.predicted_tasks = predicted
    return DemandStage(
        fit_epoch_s=[statistics.median(column) for column in zip(*fits)],
        predict_s=[statistics.median(column) for column in zip(*predicts)],
        losses=losses,
        predicted=predicted,
        shipped_threshold_tasks=int((probabilities >= SHIPPED_THRESHOLD).sum()),
        replicas=len(fits),
        model=model,
    )
