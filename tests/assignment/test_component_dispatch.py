"""The dispatch stage, end to end.

After decompose, every component search the engine needs runs in
process through :func:`repro.assignment.executor.run_component_job`, in
submission order, inside the engine's ``dispatch`` span; the merge stage
reassembles the results in that order.  The exception is a one-worker
branch-and-bound component: decompose solves it in closed form
(:func:`repro.assignment.dfsearch.dfsearch_one_worker`) and counts it in
its span's ``closed`` argument instead of building a job; a worker with
nothing in reach is counted in ``empty_searched`` when its one-worker
search is due, with the nodes an empty one-worker job expands.  With tracing
on, each job run is wrapped in a ``component.search`` span, and that
wrapping must change no decision.  These tests pin the job runner on its
own (every engine, the deadline ladder, the forwarded knobs), the order
and nesting of the search spans, the merge's reassembly of selections
and experience, and traced-vs-untraced equality over seeded replan
streams.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

import repro.assignment.executor as executor_mod
import repro.assignment.incremental as incremental_mod
from repro.assignment.dfsearch import adaptive_node_budget, dfsearch_bnb
from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.executor import ComponentJob, run_component_job
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.tree import PartitionNode
from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs import Observability
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

#: Planner options per search engine a job can run: branch-and-bound (the
#: default) and the TVF-guided search.
CONFIGS = {
    "bnb": {},
    "guided": {"use_tvf": True, "tvf_min_workers": 2},
}


def random_snapshot(rng, max_workers=12, max_tasks=36, span=6.0):
    """Random geometric snapshot -> (workers, tasks)."""
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, span), rng.uniform(0, span)),
            rng.uniform(0.8, 3.0),
            0.0,
            rng.uniform(10, 60),
        )
        for i in range(rng.randint(2, max_workers))
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, span), rng.uniform(0, span)), 0.0, rng.uniform(2, 50))
        for j in range(rng.randint(3, max_tasks))
    ]
    return workers, tasks


def outcome_state(outcome):
    """Every decision and count a PlanningOutcome reports."""
    return {
        "assignment": sorted(
            (plan.worker.worker_id, plan.sequence.task_ids) for plan in outcome.assignment
        ),
        "planned_tasks": outcome.planned_tasks,
        "nodes_expanded": outcome.nodes_expanded,
        "num_components": outcome.num_components,
        "reused_components": outcome.reused_components,
        "searched_components": outcome.searched_components,
        "reused_workers": outcome.reused_workers,
        "recomputed_workers": outcome.recomputed_workers,
        "rung": outcome.rung,
        "deadline_hit": outcome.deadline_hit,
    }


def result_state(result):
    return (
        result.selections,
        result.nodes_expanded,
        result.deadline_hit,
        result.skipped,
        result.experience,
    )


@pytest.fixture(scope="module")
def tvf():
    """A value function fitted on a small bootstrap snapshot, so the
    guided search runs its learned branch rather than the cold start."""
    rng = random.Random(7)
    workers = [
        Worker(i, Point(rng.uniform(0, 6), rng.uniform(0, 6)), 2.0, 0.0, 40.0)
        for i in range(8)
    ]
    tasks = [
        Task(500 + j, Point(rng.uniform(0, 6), rng.uniform(0, 6)), 0.0, 30.0)
        for j in range(25)
    ]
    boot = TaskPlanner(PlannerConfig(use_tvf=True, incremental_replan=False), travel=TRAVEL)
    boot.train_tvf(workers, tasks, 0.0, epochs=2)
    return boot.tvf


def make_planner(config_name, tvf, **overrides):
    options = dict(CONFIGS[config_name], **overrides)
    return TaskPlanner(
        PlannerConfig(**options),
        travel=TRAVEL,
        tvf=tvf if options.get("use_tvf") else None,
    )


@pytest.fixture
def recorded(monkeypatch):
    """Every ``(job, result)`` pair the engine dispatches, in call order."""
    calls = []

    def recording(job, deadline=None):
        result = run_component_job(job, deadline)
        calls.append((job, result))
        return result

    monkeypatch.setattr(incremental_mod, "run_component_job", recording)
    return calls


@pytest.fixture
def closed_forms(monkeypatch):
    """Every one-worker result decompose solves in closed form, in order."""
    results = []
    solve = incremental_mod.dfsearch_one_worker

    def recording(worker_id, sequences, available_ids):
        result = solve(worker_id, sequences, available_ids)
        results.append(result)
        return result

    monkeypatch.setattr(incremental_mod, "dfsearch_one_worker", recording)
    return results


def empty_job_nodes():
    """Nodes the B&B engine expands on a one-worker job with no candidate:
    what the engine counts for a worker with nothing in reach (one-worker
    components are never guided in :data:`CONFIGS`)."""
    job = ComponentJob(
        index=0,
        mode="bnb",
        root=PartitionNode(workers=[0]),
        worker_ids=(0,),
        sequences_by_worker={0: []},
        workers_by_id={0: Worker(0, Point(0.0, 0.0), 1.0, 0.0, 10.0)},
        task_ids=frozenset(),
        node_budget=adaptive_node_budget(PlannerConfig().node_budget, 1, 0),
    )
    return run_component_job(job).nodes_expanded


def jobs_of(mode, tvf, recorded, seed=11, **overrides):
    """Real jobs of one engine, as the engine's decompose stage builds them."""
    config_name = {"tvf": "guided", "bnb": "bnb"}[mode]
    workers, tasks = random_snapshot(random.Random(seed))
    make_planner(config_name, tvf, **overrides).plan(workers, tasks, 0.0)
    jobs = [job for job, _ in recorded if job.mode == mode]
    assert jobs, f"seed {seed} dispatched no {mode} job"
    return jobs


class TestRunComponentJob:
    """The job runner on its own: one engine call, chosen by ``mode``."""

    def test_bnb_job_matches_direct_search(self, tvf, recorded):
        for job in jobs_of("bnb", tvf, recorded, seed=3):
            direct = dfsearch_bnb(
                job.root,
                None,
                job.sequences_by_worker,
                job.workers_by_id,
                node_budget=job.node_budget,
                available_ids=job.task_ids,
            )
            result = run_component_job(job)
            assert result.selections == tuple(direct.selections)
            assert result.nodes_expanded == direct.nodes_expanded
            assert not result.skipped and not result.deadline_hit

    def test_tvf_job_matches_guided_search(self, tvf, recorded):
        for job in jobs_of("tvf", tvf, recorded):
            assert job.tvf is tvf and job.tasks is not None
            direct = dfsearch_tvf(
                job.root, job.tasks, job.sequences_by_worker, job.workers_by_id, tvf
            )
            result = run_component_job(job)
            assert result.selections == tuple(direct.selections)
            assert result.nodes_expanded == direct.nodes_expanded

    @pytest.mark.parametrize("mode", ["bnb", "tvf"])
    def test_far_deadline_equals_no_deadline(self, mode, tvf, recorded):
        far = time.perf_counter() + 3600.0
        for job in jobs_of(mode, tvf, recorded):
            assert result_state(run_component_job(job, far)) == result_state(
                run_component_job(job)
            )

    @pytest.mark.parametrize("mode", ["bnb", "tvf"])
    def test_expired_deadline_reaches_no_engine(self, mode, tvf, recorded, monkeypatch):
        jobs = jobs_of(mode, tvf, recorded)

        def no_search(*args, **kwargs):
            raise AssertionError("a search engine ran past an expired deadline")

        for name in ("dfsearch_bnb", "dfsearch_tvf"):
            monkeypatch.setattr(executor_mod, name, no_search)
        past = time.perf_counter() - 1.0
        for job in jobs:
            result = run_component_job(job, past)
            assert result.skipped
            assert result.selections == () and result.nodes_expanded == 0
            assert result.experience == []

    def test_node_budget_is_forwarded(self, tvf, recorded):
        searched = 0
        for job in jobs_of("bnb", tvf, recorded):
            starved = dataclasses.replace(job, node_budget=1)
            direct = dfsearch_bnb(
                job.root,
                None,
                job.sequences_by_worker,
                job.workers_by_id,
                node_budget=1,
                available_ids=job.task_ids,
            )
            result = run_component_job(starved)
            assert result.selections == tuple(direct.selections)
            assert result.nodes_expanded == direct.nodes_expanded
            assert result.nodes_expanded <= run_component_job(job).nodes_expanded
            searched += job.num_sequences > 0
        assert searched

    def test_experience_is_forwarded(self, tvf, recorded):
        collected = 0
        for job in jobs_of("bnb", tvf, recorded):
            assert run_component_job(job).experience == []
            collecting = dataclasses.replace(job, collect_experience=True)
            direct = dfsearch_bnb(
                job.root,
                None,
                job.sequences_by_worker,
                job.workers_by_id,
                node_budget=job.node_budget,
                collect_experience=True,
                available_ids=job.task_ids,
            )
            result = run_component_job(collecting)
            assert result.experience == direct.experience
            collected += len(result.experience)
        assert collected

    def test_job_runs_are_pure(self, tvf, recorded):
        """The same job twice gives the same result and leaves its inputs
        as they were: a job is a value the engine may build once."""
        for job in jobs_of("bnb", tvf, recorded):
            sequences = {
                wid: [seq.task_ids for seq in seqs]
                for wid, seqs in job.sequences_by_worker.items()
            }
            task_ids = job.task_ids
            first = result_state(run_component_job(job))
            assert result_state(run_component_job(job)) == first
            assert {
                wid: [seq.task_ids for seq in seqs]
                for wid, seqs in job.sequences_by_worker.items()
            } == sequences
            assert job.task_ids == task_ids


class TestSubmissionOrder:
    """One ``component.search`` span per job, inside ``dispatch``, in
    submission order and one after another; the merge takes each
    component's selections from its own job, or from its closed form."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(6))
    def test_searches_run_in_submission_order(
        self, seed, config_name, tvf, recorded, closed_forms
    ):
        workers, tasks = random_snapshot(random.Random(5300 + seed))
        planner = make_planner(config_name, tvf)
        obs = Observability()
        planner.attach_observability(obs)
        outcome = planner.plan(workers, tasks, 0.0)
        events = obs.tracer.events

        (decompose,) = [e for e in events if e["name"] == "decompose"]
        (dispatch,) = [e for e in events if e["name"] == "dispatch"]
        searches = [e for e in events if e["name"] == "component.search"]
        jobs = [job for job, _ in recorded]
        closed = decompose["args"]["closed"]
        empty_searched = decompose["args"]["empty_searched"]
        assert closed == len(closed_forms)
        assert dispatch["args"]["jobs"] == len(jobs) == len(searches)
        assert (
            len(jobs) + closed + empty_searched
            == outcome.searched_components
            == outcome.num_components
        )
        assert [job.index for job in jobs] == list(range(len(jobs)))
        assert [e["args"]["index"] for e in searches] == list(range(len(jobs)))
        assert [e["args"]["mode"] for e in searches] == [job.mode for job in jobs]
        expected_modes = {"bnb": {"bnb"}, "guided": {"bnb", "tvf"}}
        assert {job.mode for job in jobs} <= expected_modes[config_name]

        start, end = dispatch["ts"], dispatch["ts"] + dispatch["dur"]
        for event in searches:
            assert event["args"]["parent"] == dispatch["args"]["id"]
            assert start <= event["ts"] and event["ts"] + event["dur"] <= end
            assert not event["args"]["skipped"]
        for before, after in zip(searches, searches[1:]):
            assert before["ts"] + before["dur"] <= after["ts"]

        results = [result for _, result in recorded]
        assert [e["args"]["nodes"] for e in searches] == [r.nodes_expanded for r in results]
        assert all(r.nodes_expanded == 1 for r in closed_forms)
        empty_nodes = empty_job_nodes()
        assert outcome.nodes_expanded == empty_searched * empty_nodes + sum(
            r.nodes_expanded for r in [*results, *closed_forms]
        )
        merged = sorted(
            sel for r in [*results, *closed_forms] for sel in r.selections if sel[1]
        )
        assert outcome_state(outcome)["assignment"] == merged

    def test_experience_concatenates_in_submission_order(self, tvf, recorded):
        workers, tasks = random_snapshot(random.Random(71))
        planner = make_planner("bnb", tvf)
        outcome = planner.plan(workers, tasks, 0.0, collect_experience=True)
        assert outcome.experience
        assert all(job.collect_experience for job, _ in recorded)
        assert outcome.experience == [
            sample for _, result in recorded for sample in result.experience
        ]
        again = make_planner("bnb", tvf).plan(
            workers, tasks, 0.0, collect_experience=True
        )
        assert again.experience == outcome.experience

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_only_on_the_healthy_search_path(
        self, seed, tvf, recorded, closed_forms
    ):
        """One-worker components get the closed form on a plain plan, and
        a job instead when experience is collected or the deadline has
        already passed (the job runner then skips them into the greedy
        rung)."""
        workers, tasks = random_snapshot(random.Random(5300 + seed))
        # A worker far from the rest, with a task of its own.
        workers.append(Worker(99, Point(50.0, 50.0), 2.0, 0.0, 60.0))
        tasks.append(Task(999, Point(50.5, 50.0), 0.0, 30.0))
        planner = make_planner("bnb", tvf)
        obs = Observability()
        planner.attach_observability(obs)
        plain = planner.plan(workers, tasks, 0.0)
        assert (99, (999,)) in outcome_state(plain)["assignment"]
        lone = len(closed_forms)
        assert lone and not any(len(job.worker_ids) == 1 for job, _ in recorded)
        (decompose,) = [e for e in obs.tracer.events if e["name"] == "decompose"]
        empty_searched = decompose["args"]["empty_searched"]
        assert plain.searched_components == len(recorded) + lone + empty_searched

        for options, kwargs in (({}, {"collect_experience": True}), ({"deadline_s": 0.0}, {})):
            recorded.clear()
            make_planner("bnb", tvf, **options).plan(workers, tasks, 0.0, **kwargs)
            assert len(closed_forms) == lone  # no further closed form ran
            assert sum(len(job.worker_ids) == 1 for job, _ in recorded) == lone
            if options:
                assert all(result.skipped for _, result in recorded)


def _mutate(rng, workers, tasks, now, next_id, span):
    """One stream step: nothing, a move, an arrival or a removal."""
    event = rng.random()
    if event < 0.25:
        pass
    elif event < 0.5:
        i = rng.randrange(len(workers))
        workers[i] = workers[i].moved_to(Point(rng.uniform(0, span), rng.uniform(0, span)))
    elif event < 0.8 or len(tasks) < 4:
        location = Point(rng.uniform(0, span), rng.uniform(0, span))
        tasks.append(Task(next_id, location, now, now + rng.uniform(5, 40)))
        next_id += 1
    else:
        del tasks[rng.randrange(len(tasks))]
    return next_id


class TestTracingIsTransparent:
    """The traced dispatch loop (one span per search) and the untraced one
    take the same decisions, epoch after epoch, caches included."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(6))
    def test_traced_stream_equals_untraced(self, seed, config_name, tvf):
        rng = random.Random(6400 + seed)
        span = 10.0
        workers, tasks = random_snapshot(rng, max_tasks=24, span=span)
        traced = make_planner(config_name, tvf)
        obs = Observability()
        traced.attach_observability(obs)
        plain = make_planner(config_name, tvf)

        now, next_id = 0.0, 1000
        searched = reused = 0
        for _ in range(12):
            live = [t for t in tasks if t.expiration_time > now]
            expected = plain.plan(workers, live, now)
            outcome = traced.plan(workers, live, now)
            assert outcome_state(outcome) == outcome_state(expected)
            searched += outcome.searched_components
            reused += outcome.reused_components
            next_id = _mutate(rng, workers, tasks, now, next_id, span)
            now += rng.uniform(0.0, 0.5)

        events = obs.tracer.events
        spans = [e for e in events if e["name"] == "component.search"]
        decomposes = [e["args"] for e in events if e["name"] == "decompose"]
        closed = sum(args["closed"] for args in decomposes)
        empty_searched = sum(args["empty_searched"] for args in decomposes)
        assert len(spans) + closed + empty_searched == searched
        assert searched and reused
