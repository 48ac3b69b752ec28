"""Per-leg departure-window pricing: served-rate win and uniform overhead.

PR 10's ``per_leg_pricing`` prices every leg of a candidate sequence at
the profile window of its *simulated departure* instead of the window
latched when planning started — matching what execution actually pays,
since the platform re-latches at every dispatch.  Two measurements,
written into the ``per_leg_pricing`` section of ``BENCH_planning.json``
(merged, so the sections owned by the other perf modules survive):

* **boundary_stream** — N disjoint copies of the boundary-crossing motif
  from ``tests/assignment/test_per_leg_pricing.py`` (a slow→fast profile
  step where the frozen planner provably forfeits a 3-task chain for a
  2-task decoy pair), replayed end-to-end on :class:`SCPlatform` with the
  flag off and on.  Served counts are integer simulation outcomes over
  identical float inputs — deterministic and machine-invariant — so
  ``check_regression.py`` gates ``served_ratio`` at an absolute floor of
  ``PER_LEG_SERVED_FLOOR`` (1.0: per-leg pricing must never serve fewer
  tasks than frozen pricing on this stream; the committed value is 1.5).
* **uniform_overhead** — the dirty single-event stream over a *uniform*
  rush profile, planned with the flag off and on.  Uniform profiles take
  the exact frozen path (``leg_pricer`` returns ``None``), so the flag
  must be bit-for-bit neutral; the wall-clock ratio is reported as
  context (not gated — two timed runs of identical work differ only by
  machine noise).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import print_figure
from test_incremental_replan import make_stream_snapshot

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: (name, number of disjoint motif copies).
MOTIF_SCALES = [
    ("small", 4),
    ("medium", 16),
]

#: Motifs are stacked ``MOTIF_SPACING`` apart on the y-axis; worker reach
#: is 40, so the components never interact and the served counts compose
#: additively: frozen serves 2 per motif, per-leg 3.
MOTIF_SPACING = 100.0


def make_boundary_stream(num_motifs):
    """``num_motifs`` disjoint copies of the boundary-crossing motif.

    Each motif (see ``_boundary_stream_instance`` in
    ``tests/assignment/test_per_leg_pricing.py`` for the full margin
    derivation): multiplier 0.5 until t=10 then 2.0; one worker whose
    shift starts at t=1, a right-side chain A(x=6, e=14) → B1(x=14,
    e=18) → B2(x=15, e=19) that only works when the post-A legs are
    priced in the fast window, and a left-side decoy pair C(x=-2, e=10),
    D(x=-4, e=12) that the frozen planner prefers by count.  Frozen
    dispatches left and serves 2; per-leg dispatches right and serves 3.
    """
    from repro.core.problem import ATAInstance
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point
    from repro.spatial.profiles import SpeedProfile
    from repro.spatial.timedep import TimeDependentTravelModel
    from repro.spatial.travel import EuclideanTravelModel

    rush = SpeedProfile(breakpoints=(0.0, 10.0), multipliers=(0.5, 2.0), period=1000.0)
    travel = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), rush)
    workers, tasks = [], []
    for k in range(num_motifs):
        dy = MOTIF_SPACING * k
        workers.append(Worker(k + 1, Point(0.0, dy), 40.0, 1.0, 200.0))
        for j, (x, expire) in enumerate(
            [(6.0, 14.0), (14.0, 18.0), (15.0, 19.0), (-2.0, 10.0), (-4.0, 12.0)]
        ):
            tasks.append(Task(10 * (k + 1) + j, Point(x, dy), 0.0, expire))
    return ATAInstance(workers, tasks, travel=travel, name=f"boundary-x{num_motifs}")


def _replay(num_motifs, per_leg):
    from repro.assignment.planner import PlannerConfig
    from repro.assignment.strategies import DTAStrategy
    from repro.simulation.platform import PlatformConfig, SCPlatform

    instance = make_boundary_stream(num_motifs)
    platform = SCPlatform(
        instance,
        DTAStrategy(
            config=PlannerConfig(per_leg_pricing=per_leg), travel=instance.travel
        ),
        PlatformConfig(replan_interval=0.0),
    )
    return platform.run()


def _mean_ms(samples):
    return float(np.asarray(samples or [0.0], dtype=np.float64).mean() * 1000.0)


class TestBoundaryStreamServedRate:
    def test_boundary_stream_served_rate(self, bench_scale, perf_results):
        """Full platform replays, frozen vs per-leg pricing."""
        section = {}
        rows = []
        for name, num_motifs in MOTIF_SCALES:
            frozen = _replay(num_motifs, per_leg=False)
            per_leg = _replay(num_motifs, per_leg=True)
            served_ratio = per_leg.assigned_tasks / max(frozen.assigned_tasks, 1)
            section[name] = {
                "motifs": num_motifs,
                "workers": num_motifs,
                "tasks": 5 * num_motifs,
                "frozen_served": frozen.assigned_tasks,
                "per_leg_served": per_leg.assigned_tasks,
                "served_ratio": round(served_ratio, 3),
                "frozen_mean_replan_ms": round(_mean_ms(frozen.cpu_times), 3),
                "per_leg_mean_replan_ms": round(_mean_ms(per_leg.cpu_times), 3),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_motifs} motifs)",
                    "frozen_served": frozen.assigned_tasks,
                    "per_leg_served": per_leg.assigned_tasks,
                    "served_ratio": f"{served_ratio:.2f}x",
                    "per_leg_replan_ms": f"{_mean_ms(per_leg.cpu_times):.2f}",
                }
            )
            # Deterministic outcome: the motifs are independent, so the
            # counts compose exactly — frozen forfeits the chain in every
            # copy.  The absolute floor in check_regression.py re-checks
            # served_ratio >= 1.0 against the committed numbers.
            assert frozen.assigned_tasks == 2 * num_motifs
            assert per_leg.assigned_tasks == 3 * num_motifs
        perf_results.setdefault("per_leg_pricing", {})["boundary_stream"] = section
        print_figure(
            "Boundary-crossing stream — frozen vs per-leg departure pricing",
            rows,
            ["scale", "frozen_served", "per_leg_served", "served_ratio", "per_leg_replan_ms"],
        )


class TestUniformOverhead:
    def test_uniform_profile_is_bit_neutral(self, bench_scale, perf_results):
        """Dirty stream over a uniform profile: the flag must change
        nothing but the config object."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.core.task import Task
        from repro.spatial.geometry import Point
        from repro.spatial.profiles import SpeedProfile
        from repro.spatial.timedep import TimeDependentTravelModel
        from repro.spatial.travel import EuclideanTravelModel

        num_events = 8 if bench_scale.name == "quick" else 16
        name, num_workers, num_tasks = ("small", 25, 150)
        workers, tasks, area, rng = make_stream_snapshot(num_workers, num_tasks)

        def planner(per_leg):
            travel = TimeDependentTravelModel(
                EuclideanTravelModel(speed=1.0), SpeedProfile.constant(0.8)
            )
            return TaskPlanner(
                PlannerConfig(per_leg_pricing=per_leg), travel=travel
            )

        off, on = planner(False), planner(True)
        off_samples, on_samples = [], []
        now = 0.0
        next_id = 50_000
        for event in range(num_events):
            now += 0.2
            if event % 3 == 2 and tasks:
                task = tasks.pop(rng.randrange(len(tasks)))
                widx = rng.randrange(len(workers))
                workers[widx] = workers[widx].moved_to(task.location)
            else:
                tasks.append(
                    Task(
                        next_id,
                        Point(rng.uniform(0, area), rng.uniform(0, area)),
                        now,
                        now + rng.uniform(20.0, 80.0),
                    )
                )
                next_id += 1
            start = time.perf_counter()
            on_outcome = on.plan(workers, tasks, now)
            on_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            off_outcome = off.plan(workers, tasks, now)
            off_samples.append(time.perf_counter() - start)
            assert [
                (wp.worker.worker_id, wp.sequence.task_ids)
                for wp in on_outcome.assignment
            ] == [
                (wp.worker.worker_id, wp.sequence.task_ids)
                for wp in off_outcome.assignment
            ]
            assert on_outcome.nodes_expanded == off_outcome.nodes_expanded

        off_mean, on_mean = _mean_ms(off_samples), _mean_ms(on_samples)
        perf_results.setdefault("per_leg_pricing", {})["uniform_overhead"] = {
            name: {
                "workers": num_workers,
                "tasks": num_tasks,
                "events": num_events,
                "frozen_mean_ms": round(off_mean, 3),
                "per_leg_mean_ms": round(on_mean, 3),
                "overhead_ratio": round(on_mean / max(off_mean, 1e-9), 3),
            }
        }
        print_figure(
            "Uniform-profile stream — per-leg flag overhead (bit-neutral path)",
            [
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "frozen_mean_ms": f"{off_mean:.1f}",
                    "per_leg_mean_ms": f"{on_mean:.1f}",
                    "ratio": f"{on_mean / max(off_mean, 1e-9):.2f}x",
                }
            ],
            ["scale", "frozen_mean_ms", "per_leg_mean_ms", "ratio"],
        )
