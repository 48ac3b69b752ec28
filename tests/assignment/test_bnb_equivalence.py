"""Branch-and-bound exact search: equivalence, anytime and regression tests.

The contract under test (see :func:`repro.assignment.dfsearch.dfsearch_bnb`):

* on every instance the plain DFSearch oracle (``reference_search.py``)
  solves within budget, the branch-and-bound engine returns the identical
  ``opt``;
* on small forests that ``opt`` is also the brute-force optimum of the
  assignment problem, computed by :func:`brute_force_opt` without either
  search;
* under budget exhaustion the answer is still feasible — selections come
  from ``Q_w`` and no task is assigned twice;
* the search-layer bugfixes hold: memo hits no longer burn node budget,
  and the memo key no longer collides across tree nodes.
"""

import hashlib
import importlib
import math
import random

import pytest
from reference_pipeline import assert_planner_matches_oracle, reference_plan
from reference_search import dfsearch

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False

from repro.assignment.dfsearch import adaptive_node_budget, dfsearch_bnb
from repro.assignment.executor import ComponentJob
from repro.assignment.fast_partition import build_adjacency, build_partition_tree_fast
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import reachable_tasks
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

#: The kernel module itself (``repro.assignment.dfsearch`` the attribute is
#: the function): the deadline goldens swap its clock.
dfsearch_module = importlib.import_module("repro.assignment.dfsearch")

#: Budget large enough that the plain search completes on every instance
#: the random generators below can produce.
AMPLE_BUDGET = 2_000_000


def random_problem(rng, max_workers=10, max_tasks=30, span=6.0):
    """Random geometric instance -> (forest roots, tasks, Q_w, workers)."""
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
    roots, sequences, workers_by_id = search_inputs(workers, tasks)
    return roots, tasks, sequences, workers_by_id


def search_inputs(workers, tasks, max_reachable=8):
    """Reachability, ``Q_w`` and RTC forest at t=0 -> (roots, Q_w, workers)."""
    reachable = {
        w.worker_id: reachable_tasks(w, tasks, 0.0, TRAVEL, max_tasks=max_reachable)
        for w in workers
    }
    sequences = {
        w.worker_id: maximal_valid_sequences(
            w, reachable[w.worker_id], 0.0, TRAVEL, max_length=3, max_sequences=32
        )
        for w in workers
    }
    tree = build_partition_tree_fast(build_adjacency(reachable))
    workers_by_id = {w.worker_id: w for w in workers}
    return tree.roots, sequences, workers_by_id


def dense_component_snapshot(num_workers, num_tasks, seed):
    """Seeded dense snapshot ``(workers, tasks)``: every worker reaches
    most of a small pool (the contested 5-7 driver shape the dense-batch
    replay searches)."""
    rng = random.Random(seed)
    workers = [
        Worker(i, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 2.5, 0.0, 60.0)
        for i in range(num_workers)
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 0.0, rng.uniform(6, 45))
        for j in range(num_tasks)
    ]
    return workers, tasks


def dense_component_problem(num_workers, num_tasks, seed):
    """:func:`dense_component_snapshot` as search inputs."""
    workers, tasks = dense_component_snapshot(num_workers, num_tasks, seed)
    roots, sequences, workers_by_id = search_inputs(workers, tasks)
    return roots, tasks, sequences, workers_by_id


def assert_feasible(result, sequences_by_worker):
    """Selections reuse no task and only use sequences from ``Q_w``."""
    used = [tid for _, tids in result.selections for tid in tids]
    assert len(used) == len(set(used)), "a task was assigned twice"
    assert result.opt == len(used)
    for worker_id, task_ids in result.selections:
        if not task_ids:
            continue
        q_w = {seq.task_ids for seq in sequences_by_worker.get(worker_id, [])}
        assert task_ids in q_w, "selection is not a known maximal sequence"


class TestBnBEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_opt_as_plain_search(self, seed):
        """B&B and plain DFSearch agree on opt for every forest root.

        The plain search runs with a budget big enough for almost every
        random instance; on the rare cluster it cannot finish, the
        contract weakens to "B&B is never worse" (its anytime guarantee).
        """
        rng = random.Random(9100 + seed)
        roots, tasks, sequences, workers_by_id = random_problem(rng)
        for root in roots:
            exact = dfsearch(root, tasks, sequences, workers_by_id, node_budget=200_000)
            bnb = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            if exact.complete:
                assert bnb.complete
                assert bnb.opt == exact.opt
            else:
                assert bnb.opt >= exact.opt
            assert_feasible(bnb, sequences)

    @pytest.mark.parametrize("seed", range(30))
    def test_same_opt_on_dense_components(self, seed):
        """Dense contested components, where the additive bound prunes
        hardest: the same ``opt`` as the plain search, never more
        expansions, and both complete."""
        rng = random.Random(9500 + seed)
        num_workers, num_tasks = rng.randint(3, 5), rng.randint(8, 13)
        roots, tasks, sequences, workers_by_id = dense_component_problem(
            num_workers, num_tasks, seed=9500 + seed
        )
        for root in roots:
            exact = dfsearch(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            bnb = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            assert exact.complete and bnb.complete
            assert bnb.opt == exact.opt
            assert bnb.nodes_expanded <= exact.nodes_expanded
            assert_feasible(bnb, sequences)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_expands_more_nodes(self, seed):
        """Pruning only removes work: B&B expansions <= plain expansions."""
        rng = random.Random(9200 + seed)
        roots, tasks, sequences, workers_by_id = random_problem(rng, max_workers=8)
        exact_nodes = sum(
            dfsearch(r, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET).nodes_expanded
            for r in roots
        )
        bnb_nodes = sum(
            dfsearch_bnb(r, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET).nodes_expanded
            for r in roots
        )
        assert bnb_nodes <= exact_nodes

    @pytest.mark.parametrize("seed", range(6))
    def test_planner_pipeline_equivalence(self, seed):
        """Full pipeline: the planner plans as many tasks as the scalar
        oracle pipeline, whose search is the plain DFSearch.

        The instances are kept sparse enough that the plain search
        completes within budget — on denser ones it saturates and B&B
        (which completes) legitimately plans *more* tasks.
        """
        rng = random.Random(9300 + seed)
        workers = [
            Worker(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)), rng.uniform(0.7, 2.0), 0.0, 50.0)
            for i in range(8)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, rng.uniform(5, 40))
            for j in range(30)
        ]
        planner = TaskPlanner(
            PlannerConfig(incremental_replan=False, node_budget=AMPLE_BUDGET), travel=TRAVEL
        )
        outcome = planner.plan(workers, tasks, 0.0)
        reference = reference_plan(workers, tasks, 0.0, TRAVEL, node_budget=AMPLE_BUDGET)
        assert reference.complete
        assert outcome.planned_tasks == reference.planned_tasks
        assert outcome.num_components == reference.num_components

    if HAVE_HYPOTHESIS:

        @given(st.integers(min_value=0, max_value=10_000))
        @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def test_same_opt_property(self, seed):
            rng = random.Random(seed)
            roots, tasks, sequences, workers_by_id = random_problem(rng, max_workers=7, max_tasks=20)
            for root in roots:
                exact = dfsearch(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
                bnb = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
                assert bnb.opt == exact.opt
                assert_feasible(bnb, sequences)


def brute_force_opt(root, sequences_by_worker):
    """Most tasks the workers of ``root``'s subtree can take, by the
    definition alone: each worker takes one candidate of its ``Q_w`` or
    nothing, and no task is taken twice.  Shares no code with either
    search and ignores the tree's shape."""
    q_ws = [
        [frozenset(seq.task_ids) for seq in sequences_by_worker.get(wid, [])]
        for wid in root.all_workers()
    ]
    memo = {}

    def best(k, taken):
        if k == len(q_ws):
            return 0
        key = (k, taken)
        if key not in memo:
            value = best(k + 1, taken)  # worker k takes nothing
            for ids in q_ws[k]:
                if taken.isdisjoint(ids):
                    value = max(value, len(ids) + best(k + 1, taken | ids))
            memo[key] = value
        return memo[key]

    return best(0, frozenset())


class TestBruteForceOptimum:
    @pytest.mark.parametrize("seed", range(60))
    def test_opt_equals_brute_force(self, seed):
        """On small geometric forests the search's ``opt`` is the optimum
        of the assignment problem itself, not just another search's."""
        rng = random.Random(9600 + seed)
        roots, tasks, sequences, workers_by_id = random_problem(
            rng, max_workers=6, max_tasks=14, span=4.0
        )
        for root in roots:
            result = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            assert result.complete
            assert result.opt == brute_force_opt(root, sequences)
            assert_feasible(result, sequences)
            assert sorted(wid for wid, _ in result.selections) == sorted(root.all_workers())


class TestBnBAnytime:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("budget", [1, 3, 17, 90])
    def test_budget_exhaustion_yields_feasible_partial(self, seed, budget):
        """Any budget cut still produces a valid no-task-reuse assignment."""
        rng = random.Random(9400 + seed)
        roots, tasks, sequences, workers_by_id = random_problem(rng)
        for root in roots:
            result = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=budget)
            assert result.nodes_expanded <= budget
            assert_feasible(result, sequences)
            # Every tree worker appears exactly once in the selections.
            selected = [wid for wid, _ in result.selections]
            assert sorted(selected) == sorted(root.all_workers())

    def test_anytime_value_never_decreases_with_budget(self):
        """More budget can only improve (or equal) the best-effort opt."""
        rng = random.Random(777)
        roots, tasks, sequences, workers_by_id = random_problem(rng, max_workers=9, max_tasks=28)
        for root in roots:
            previous = -1
            for budget in (5, 50, 500, AMPLE_BUDGET):
                result = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=budget)
                assert result.opt >= previous
                previous = result.opt
            assert result.complete


class TestSearchLayerRegressions:
    def test_memo_key_includes_node_identity(self):
        """The empty-pending memo state of different tree nodes must not
        collide.  Before the fix, the leaf's ``(∅, {t1})`` entry was
        replayed for the root's ``(∅, {t1})`` lookup, losing the child
        subtree's contribution: opt came back 1 instead of 2."""
        t1 = Task(1, Point(0, 0), 0.0, 100.0)
        t2 = Task(2, Point(1, 0), 0.0, 100.0)
        a1 = Worker(11, Point(0, 0), 10.0, 0.0, 100.0)
        a2 = Worker(12, Point(0, 0), 10.0, 0.0, 100.0)
        b = Worker(13, Point(0, 0), 10.0, 0.0, 100.0)
        root = PartitionNode(workers=[11, 12], children=[PartitionNode(workers=[13])])
        sequences = {
            11: [],
            12: [TaskSequence(a2, (t2,))],
            13: [TaskSequence(b, (t1,)), TaskSequence(b, (t2,))],
        }
        workers_by_id = {11: a1, 12: a2, 13: b}
        for engine in (dfsearch, dfsearch_bnb):
            result = engine(root, [t1, t2], sequences, workers_by_id)
            assert result.opt == 2, engine.__name__
            assert result.as_assignment_map() in (
                {12: (2,), 13: (1,)},
                {13: (2,), 12: (1,)},
            )

    def test_memo_hits_do_not_consume_budget(self):
        """Memo hits are free: a memo-heavy instance must complete within a
        budget that the old hit-charging accounting exhausted."""
        # Many interchangeable workers over a shared task pool: the search
        # revisits the same (pending, tasks) sub-problems constantly.
        tasks = [Task(j, Point(j * 0.1, 0.0), 0.0, 100.0) for j in range(1, 7)]
        workers = [Worker(i, Point(0.0, 0.0), 10.0, 0.0, 100.0) for i in range(1, 8)]
        reachable = {w.worker_id: tasks for w in workers}
        sequences = {
            w.worker_id: maximal_valid_sequences(w, tasks, 0.0, TRAVEL, max_length=2)
            for w in workers
        }
        tree = build_partition_tree_fast(build_adjacency(reachable))
        workers_by_id = {w.worker_id: w for w in workers}
        assert len(tree.roots) == 1
        reference = dfsearch(
            tree.roots[0], tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET
        )
        assert reference.memo_hits > 0
        # The old accounting charged expansions + memo hits against the
        # budget; the fixed accounting must finish (and agree) within a
        # budget between the two counts.
        budget = reference.nodes_expanded + reference.memo_hits // 2
        rerun = dfsearch(tree.roots[0], tasks, sequences, workers_by_id, node_budget=budget)
        assert rerun.complete
        assert rerun.opt == reference.opt
        assert rerun.nodes_expanded == reference.nodes_expanded

    def test_nodes_expanded_counts_only_true_expansions(self):
        """The diagnostic no longer overstates work done on memo hits."""
        rng = random.Random(4242)
        roots, tasks, sequences, workers_by_id = random_problem(rng, max_workers=8)
        for root in roots:
            result = dfsearch(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            assert result.nodes_expanded <= AMPLE_BUDGET
            # Memo hits are reported separately, not folded into the count.
            assert result.memo_hits >= 0
            assert result.complete

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PlannerConfig(search_mode="exact"),
            lambda: PlannerConfig(bound_mode="lp"),
            lambda: ComponentJob(
                0, "exact", PartitionNode(workers=[0]), (0,), {0: []}, {}, frozenset()
            ),
        ],
        ids=["search_mode", "bound_mode", "job_mode"],
    )
    def test_removed_modes_are_rejected(self, build):
        """The plain search and the matching bounds are gone from the
        product: their switches accept only the one shipped value."""
        with pytest.raises(ValueError):
            build()


class TestAdaptiveNodeBudget:
    """The per-component budget scales with component size (PR 3 follow-on):
    a base budget sized for small components must not truncate big ones."""

    def test_helper_floors(self):
        assert adaptive_node_budget(50_000, 1, 4) == 50_000  # base dominates
        assert adaptive_node_budget(100, 40, 0) == 40 * 2000
        assert adaptive_node_budget(100, 1, 1000) == 1000 * 250
        # Monotone in every argument.
        assert adaptive_node_budget(100, 50, 10) >= adaptive_node_budget(100, 40, 10)

    def _dense_component(self):
        return dense_component_snapshot(7, 22, seed=4711)

    def test_budget_scaling_regression(self):
        """With a starvation-level base budget, the adaptive floor must
        restore the complete search (same planned tasks as an ample fixed
        budget); the same component searched at the fixed starvation budget
        is truncated."""
        workers, tasks = self._dense_component()
        planner = TaskPlanner(
            PlannerConfig(incremental_replan=False, node_budget=1), travel=TRAVEL
        )
        adaptive = planner.plan(workers, tasks, 0.0)

        roots, sequences, workers_by_id = search_inputs(
            workers, tasks, max_reachable=planner.config.max_reachable
        )
        fixed = {"ample": [0, 0], "starved": [0, 0]}
        for root in roots:
            for label, budget in (("ample", AMPLE_BUDGET), ("starved", 1)):
                result = dfsearch_bnb(
                    root, tasks, sequences, workers_by_id, node_budget=budget
                )
                fixed[label][0] += result.opt
                fixed[label][1] += result.nodes_expanded
        assert adaptive.planned_tasks == fixed["ample"][0]
        assert adaptive.nodes_expanded == fixed["ample"][1]
        assert fixed["starved"][0] <= adaptive.planned_tasks
        assert fixed["starved"][1] < adaptive.nodes_expanded

    def test_incremental_and_full_agree_under_adaptive_budget(self):
        workers, tasks = self._dense_component()
        incremental = TaskPlanner(
            PlannerConfig(incremental_replan=True, node_budget=1), travel=TRAVEL
        )
        full = TaskPlanner(
            PlannerConfig(incremental_replan=False, node_budget=1), travel=TRAVEL
        )
        for now in (0.0, 0.5, 1.0):
            a = incremental.plan(workers, tasks, now)
            b = full.plan(workers, tasks, now)
            assert [
                (wp.worker.worker_id, wp.sequence.task_ids) for wp in a.assignment
            ] == [(wp.worker.worker_id, wp.sequence.task_ids) for wp in b.assignment]
            assert a.nodes_expanded == b.nodes_expanded


class TestBnBExperienceCollection:
    """PR 3 follow-on: the branch-and-bound engine records TVF experience
    from its explored sub-problems instead of delegating to the plain
    exhaustive search."""

    def test_bnb_collects_well_formed_experience(self):
        rng = random.Random(2024)
        roots, tasks, sequences, workers_by_id = random_problem(rng)
        total = 0
        for root in roots:
            result = dfsearch_bnb(
                root, tasks, sequences, workers_by_id,
                node_budget=AMPLE_BUDGET, collect_experience=True,
            )
            exact = dfsearch_bnb(
                root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET
            )
            assert result.opt == exact.opt  # collection must not change search
            for state, action, value in result.experience:
                assert value >= 1.0
                assert state["num_tasks"] == len(state["task_ids"])
                assert state["num_workers"] == len(state["worker_ids"])
                assert action["worker_id"] in state["worker_ids"]
                assert set(action["task_ids"]) <= set(state["task_ids"])
                assert action["sequence_length"] == len(action["task_ids"])
                assert state["task_ids"] == tuple(sorted(state["task_ids"]))
            total += len(result.experience)
        assert total > 0

    def test_bnb_experience_is_cheaper_than_exhaustive(self):
        # The point of collecting from B&B: far fewer recorded states on
        # dense components, at full search quality.
        rng = random.Random(31338)
        workers = [
            Worker(i, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 2.5, 0.0, 60.0)
            for i in range(6)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 0.0, rng.uniform(6, 45))
            for j in range(18)
        ]
        reachable = {
            w.worker_id: reachable_tasks(w, tasks, 0.0, TRAVEL, max_tasks=10)
            for w in workers
        }
        sequences = {
            w.worker_id: maximal_valid_sequences(
                w, reachable[w.worker_id], 0.0, TRAVEL, max_length=3, max_sequences=32
            )
            for w in workers
        }
        tree = build_partition_tree_fast(build_adjacency(reachable))
        workers_by_id = {w.worker_id: w for w in workers}
        exhaustive = explored = 0
        for root in tree.roots:
            plain = dfsearch(
                root, tasks, sequences, workers_by_id,
                node_budget=AMPLE_BUDGET, collect_experience=True,
            )
            bnb = dfsearch_bnb(
                root, tasks, sequences, workers_by_id,
                node_budget=AMPLE_BUDGET, collect_experience=True,
            )
            assert bnb.opt == plain.opt
            exhaustive += len(plain.experience)
            explored += len(bnb.experience)
        assert 0 < explored < exhaustive

    def test_train_tvf_through_bnb_engine(self):
        rng = random.Random(808)
        workers = [
            Worker(i, Point(rng.uniform(0, 6), rng.uniform(0, 6)), 2.0, 0.0, 50.0)
            for i in range(6)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 6), rng.uniform(0, 6)), 0.0, rng.uniform(5, 40))
            for j in range(20)
        ]
        planner = TaskPlanner(PlannerConfig(use_tvf=True), travel=TRAVEL)
        losses = planner.train_tvf(workers, tasks, 0.0, epochs=5)
        assert planner.tvf.is_fitted
        assert losses


class TestBnBPruning:
    def test_dominated_sibling_sequences_are_skipped(self):
        """A subset sequence is dominated when the explored sibling's extra
        tasks are invisible to the remaining workers: the engine skips it
        yet stays exact."""
        t = [Task(i, Point(i * 0.4, 0.0), 0.0, 100.0) for i in range(1, 6)]
        w = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        other = Worker(2, Point(0, 0.5), 10.0, 0.0, 100.0)
        node = PartitionNode(workers=[1, 2])
        # t5 (= t[4]) is private to worker 1, so (t1, t2) is dominated by
        # (t1, t2, t5); (t2,) stays live — its sibling's extras include the
        # contested t1 — and (t4,) is no subset at all.
        sequences = {
            1: [
                TaskSequence(w, (t[0], t[1], t[4])),
                TaskSequence(w, (t[0], t[1])),
                TaskSequence(w, (t[1],)),
                TaskSequence(w, (t[3],)),
            ],
            2: [TaskSequence(other, (t[2], t[3])), TaskSequence(other, (t[0],))],
        }
        workers_by_id = {1: w, 2: other}
        exact = dfsearch(node, t, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
        bnb = dfsearch_bnb(node, t, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
        assert bnb.opt == exact.opt == 5
        assert bnb.nodes_expanded <= exact.nodes_expanded

    def test_unconditional_subset_pruning_would_be_unsound(self):
        """Regression for the dominance side condition: freeing a contested
        task (t3) lets worker 2 run its longer sequence, so the subset
        candidate (t1, t2) must NOT be skipped — the optimum needs it."""
        t = [Task(i, Point(i * 0.4, 0.0), 0.0, 100.0) for i in range(1, 5)]
        w = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        other = Worker(2, Point(0, 0.5), 10.0, 0.0, 100.0)
        node = PartitionNode(workers=[1, 2])
        sequences = {
            1: [TaskSequence(w, (t[0], t[1], t[2])), TaskSequence(w, (t[0], t[1]))],
            2: [TaskSequence(other, (t[2], t[3])), TaskSequence(other, (t[0],))],
        }
        workers_by_id = {1: w, 2: other}
        exact = dfsearch(node, t, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
        bnb = dfsearch_bnb(node, t, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
        assert bnb.opt == exact.opt == 4
        assert bnb.as_assignment_map() == {1: (1, 2), 2: (3, 4)}

    def test_bound_is_admissible_on_dense_cluster(self):
        """On a dense shared-task cluster the bound must never cut the true
        optimum (equivalence) while pruning a large node fraction."""
        rng = random.Random(31337)
        workers = [
            Worker(i, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 2.5, 0.0, 60.0)
            for i in range(7)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 0.0, rng.uniform(6, 45))
            for j in range(20)
        ]
        reachable = {
            w.worker_id: reachable_tasks(w, tasks, 0.0, TRAVEL, max_tasks=10) for w in workers
        }
        sequences = {
            w.worker_id: maximal_valid_sequences(
                w, reachable[w.worker_id], 0.0, TRAVEL, max_length=3, max_sequences=32
            )
            for w in workers
        }
        tree = build_partition_tree_fast(build_adjacency(reachable))
        workers_by_id = {w.worker_id: w for w in workers}
        exact_nodes = bnb_nodes = 0
        for root in tree.roots:
            exact = dfsearch(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            bnb = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=AMPLE_BUDGET)
            assert bnb.opt == exact.opt
            exact_nodes += exact.nodes_expanded
            bnb_nodes += bnb.nodes_expanded
        assert bnb_nodes * 2 <= exact_nodes, (exact_nodes, bnb_nodes)


def contested_hub_snapshot(num_pinned=8, num_central=6, num_ring=14, seed=7):
    """Hub-and-ring snapshot ``(workers, tasks)`` where the additive bound
    is provably loose.

    Many short-reach workers crowd a small central pool (worker surplus at
    the hub) while the far ring holds more tasks than the rovers' total
    capacity (task surplus at the rim).  Neither of the additive bound's
    clamps — distinct available tasks, or the per-worker capacity sum —
    sees the two-sided bottleneck, so the search runs long on it.
    """
    rng = random.Random(seed)
    tasks = []
    for j in range(num_central):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.0, 0.25)
        tasks.append(
            Task(10_000 + j, Point(r * math.cos(ang), r * math.sin(ang)), 0.0, rng.uniform(6.0, 40.0))
        )
    for j in range(num_ring):
        ang = 2 * math.pi * j / num_ring + rng.uniform(-0.15, 0.15)
        r = 5.0 + rng.uniform(-0.3, 0.3)
        tasks.append(
            Task(20_000 + j, Point(r * math.cos(ang), r * math.sin(ang)), 0.0, rng.uniform(20.0, 60.0))
        )
    workers = []
    for i in range(num_pinned):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.1, 0.4)
        workers.append(Worker(i, Point(r * math.cos(ang), r * math.sin(ang)), 0.8, 0.0, 240.0))
    for i in range(2):
        ang = math.pi * i + 0.3
        workers.append(
            Worker(100 + i, Point(4.6 * math.cos(ang), 4.6 * math.sin(ang)), 11.0, 0.0, 240.0)
        )
    return workers, tasks


def contested_hub_problem(**snapshot):
    """:func:`contested_hub_snapshot` as search inputs."""
    workers, tasks = contested_hub_snapshot(**snapshot)
    # max_tasks mirrors the planner's default ``max_reachable``: the
    # rovers see their ten nearest tasks, which keeps the rim contested.
    reachable = {
        w.worker_id: reachable_tasks(w, tasks, 0.0, TRAVEL, max_tasks=10) for w in workers
    }
    sequences = {
        w.worker_id: maximal_valid_sequences(
            w, reachable[w.worker_id], 0.0, TRAVEL, max_length=3, max_sequences=32
        )
        for w in workers
    }
    tree = build_partition_tree_fast(build_adjacency(reachable))
    workers_by_id = {w.worker_id: w for w in workers}
    return tree.roots, tasks, sequences, workers_by_id


def exclusive_head_problem(seed=1, own=6, pool=8, tail=6):
    """Worker 0 holds ``own`` tasks no other worker reads, more than its
    longest candidate (2), ahead of ``tail`` workers whose candidates share
    a pool of ``pool`` tasks.  At the root an additive sub-problem bound
    ``min(cap, term + S)`` is 8 where the rest bound, the scan cut at
    ``rest_cap``, gives 6.  The search keeps only ``cap`` and the rest
    bound: whenever ``term + S`` would have stopped it, the suffix cut
    ``length + rest_upper <= best_opt`` fires at the same candidate and
    option 0 is skipped just the same.  The goldens below were recorded
    with the ``term + S`` bound in place."""
    rng = random.Random(seed)
    tasks = {tid: Task(tid, Point(0.0, 0.0), 0.0, 100.0) for tid in range(own + pool)}
    workers = {wid: Worker(wid, Point(0.0, 0.0), 1.0, 0.0, 100.0) for wid in range(tail + 1)}
    shared = range(own, own + pool)
    candidates = {0: [tuple(rng.sample(range(own), 2)) for _ in range(3)] + [(0, own), (own - 1,)]}
    for wid in range(1, tail + 1):
        candidates[wid] = [tuple(rng.sample(shared, rng.choice((2, 3)))) for _ in range(6)]
    sequences = {
        wid: [TaskSequence(workers[wid], [tasks[t] for t in ids]) for ids in dict.fromkeys(cands)]
        for wid, cands in candidates.items()
    }
    return [PartitionNode(workers=list(workers))], list(tasks.values()), sequences, workers


#: Instances of the kernel golden: two dense components (flat trees), a
#: three-level partition tree (exercises the children recursion), the
#: contested hub (where the additive bound is loose) and a worker with
#: more exclusively held tasks than its longest candidate ahead of a
#: shared-task tail.
GOLDEN_INSTANCES = {
    "dense_6x15": lambda: dense_component_problem(6, 15, seed=2),
    "dense_7x16": lambda: dense_component_problem(7, 16, seed=3),
    "tree_17": lambda: random_problem(random.Random(17), max_workers=14, max_tasks=40),
    "hub": contested_hub_problem,
    "exclusive_head": exclusive_head_problem,
    # More of the same shapes at other sizes and seeds: flat dense
    # components from 147 to 6614 ample nodes, forests whose later roots
    # are one-worker leaves, a smaller and a wider hub, and a wider
    # exclusive head.
    "dense_5x12": lambda: dense_component_problem(5, 12, seed=4),
    "dense_6x14": lambda: dense_component_problem(6, 14, seed=5),
    "dense_6x16": lambda: dense_component_problem(6, 16, seed=6),
    "dense_7x14": lambda: dense_component_problem(7, 14, seed=8),
    "tree_29": lambda: random_problem(random.Random(29), max_workers=14, max_tasks=40),
    "tree_41": lambda: random_problem(random.Random(41), max_workers=14, max_tasks=40),
    "tree_53": lambda: random_problem(random.Random(53), max_workers=14, max_tasks=40),
    "hub_small": lambda: contested_hub_problem(num_pinned=6, num_central=5, num_ring=10, seed=11),
    "hub_wide": lambda: contested_hub_problem(num_pinned=10, num_ring=16, seed=3),
    "exclusive_head_wide": lambda: exclusive_head_problem(seed=3, own=8, pool=10, tail=7),
}

#: A budget that cuts every golden instance.
STARVED_BUDGET = 9

#: About half of each instance's ample node count (2112, 247, 134, 398 and
#: 35; then 147, 299, 851, 6614, 345, 121, 1574, 66, 178 and 135): cuts
#: every instance mid-search, where the incumbent, memo and suffix cuts
#: are all in play.
MID_BUDGET = {
    "dense_6x15": 1056, "dense_7x16": 123, "hub": 67, "tree_17": 199, "exclusive_head": 17,
    "dense_5x12": 73, "dense_6x14": 149, "dense_6x16": 425, "dense_7x14": 3307,
    "tree_29": 172, "tree_41": 60, "tree_53": 787,
    "hub_small": 33, "hub_wide": 89, "exclusive_head_wide": 67,
}

#: Deadline polls before the cut: the first poll (expansion 0) and the
#: third (past 128 expansions).
DEADLINE_POLLS = (1, 3)

#: sha256 prefixes of :func:`kernel_digest`, recorded on the search kernel
#: before the live-candidate index and the inherited rest bound went in —
#: both are pure work-skipping, so every digest must stay bit-identical.
#: Keys name the bound they were recorded under, ``additive``: the one
#: bound the search has.
KERNEL_GOLDEN = {
    "dense_6x15/additive/ample/plain": "3881e16883505620",
    "dense_6x15/additive/ample/experience": "9f10314edbd4a3b1",
    "dense_6x15/additive/starved/plain": "d87691fcdde81e18",
    "dense_6x15/additive/starved/experience": "935a60f26d32d005",
    "dense_7x16/additive/ample/plain": "b2f3be1b4e8ebd60",
    "dense_7x16/additive/ample/experience": "1fba464a2be46f4b",
    "dense_7x16/additive/starved/plain": "e12e540f6f62966a",
    "dense_7x16/additive/starved/experience": "f381e248d8a94b53",
    "hub/additive/ample/plain": "27796e7e805bf345",
    "hub/additive/ample/experience": "3de4f3676ad40489",
    "hub/additive/starved/plain": "b44ffe564a2045bf",
    "hub/additive/starved/experience": "a20f40f281bb1fbd",
    "tree_17/additive/ample/plain": "44c3daf1cfa38355",
    "tree_17/additive/ample/experience": "00eeb645f9a3ba1c",
    "tree_17/additive/starved/plain": "650590f5f17e1bc1",
    "tree_17/additive/starved/experience": "88ea47580c5460e5",
    # ``exclusive_head`` was recorded on the expansion-only kernel.
    "exclusive_head/additive/ample/plain": "acb4af481feeb95e",
    "exclusive_head/additive/ample/experience": "874484b54cb372db",
    "exclusive_head/additive/starved/plain": "505634a993370bd3",
    "exclusive_head/additive/starved/experience": "d5027a378a468fc4",
    # The ten instances below were recorded on this kernel; the kernel
    # that still carried the matching bounds gives the same digests.
    "dense_5x12/additive/ample/plain": "159a5410a6587153",
    "dense_5x12/additive/ample/experience": "53697d81f8c9d091",
    "dense_5x12/additive/starved/plain": "12ebf687b1a7ae44",
    "dense_5x12/additive/starved/experience": "4bf5398d665e143c",
    "dense_6x14/additive/ample/plain": "4b7ea03986fc03a8",
    "dense_6x14/additive/ample/experience": "f0c50f1cf843542c",
    "dense_6x14/additive/starved/plain": "e2b6f837ee27d370",
    "dense_6x14/additive/starved/experience": "3128debbba94b98f",
    "dense_6x16/additive/ample/plain": "569a34bc438f0b5f",
    "dense_6x16/additive/ample/experience": "3e154a8d1145151f",
    "dense_6x16/additive/starved/plain": "d6939ddaede5325b",
    "dense_6x16/additive/starved/experience": "9305a9e5d2ea379a",
    "dense_7x14/additive/ample/plain": "2f089447d8f79bc8",
    "dense_7x14/additive/ample/experience": "48a02d3ffd739145",
    "dense_7x14/additive/starved/plain": "b9f9028bec1b9b1d",
    "dense_7x14/additive/starved/experience": "4acb10dae5cce643",
    "tree_29/additive/ample/plain": "cea5ea4b4feccc3f",
    "tree_29/additive/ample/experience": "a5eaf5657a54c035",
    "tree_29/additive/starved/plain": "f9c65a54450f8d07",
    "tree_29/additive/starved/experience": "a3ba51d6ea93cac2",
    "tree_41/additive/ample/plain": "905b94ebaa441c20",
    "tree_41/additive/ample/experience": "1af0b346014e6535",
    "tree_41/additive/starved/plain": "a58b820f9f67e6a7",
    "tree_41/additive/starved/experience": "125031c898cbe3c3",
    "tree_53/additive/ample/plain": "cac11d550d024571",
    "tree_53/additive/ample/experience": "d3482db6762e5c9a",
    "tree_53/additive/starved/plain": "cdfd12350830d5fb",
    "tree_53/additive/starved/experience": "68f799dde2f24f47",
    "hub_small/additive/ample/plain": "480c657f550acdc8",
    "hub_small/additive/ample/experience": "b370696042c9e928",
    "hub_small/additive/starved/plain": "a82c89d1802b2b0f",
    "hub_small/additive/starved/experience": "359bbd605cfb440f",
    "hub_wide/additive/ample/plain": "38922d6495fe5fe2",
    "hub_wide/additive/ample/experience": "1ea58418080a4f7a",
    "hub_wide/additive/starved/plain": "82708428228abcf0",
    "hub_wide/additive/starved/experience": "f0b318027e6748fe",
    "exclusive_head_wide/additive/ample/plain": "866da86ff5f52f55",
    "exclusive_head_wide/additive/ample/experience": "09de5c49fd191fb9",
    "exclusive_head_wide/additive/starved/plain": "eb3f69fd0645b3dd",
    "exclusive_head_wide/additive/starved/experience": "815bda6553cdbd56",
}

#: Cut paths, recorded on the kernel before the caller-side memo probe,
#: the in-place last worker and the single bound scan went in — all three
#: pure work-skipping, so every digest must stay bit-identical.
CUT_GOLDEN = {
    "dense_6x15/additive/mid/plain": "a7fe4b3c935726b3",
    "dense_6x15/additive/mid/experience": "2315e073e0b8247c",
    "dense_7x16/additive/mid/plain": "308854fc6641ca75",
    "dense_7x16/additive/mid/experience": "cb385c2a67e4ebc0",
    "hub/additive/mid/plain": "811be2691753cd17",
    "hub/additive/mid/experience": "d1f7ab174eb7f320",
    "tree_17/additive/mid/plain": "40caec7a1856a4f5",
    "tree_17/additive/mid/experience": "06bac72cb96b23af",
    "exclusive_head/additive/mid/plain": "5a145448c7303e07",
    "exclusive_head/additive/mid/experience": "c63000f7856508d1",
    "dense_6x15/additive/deadline1/plain": "c6f5acc6457a0ffa",
    "dense_6x15/additive/deadline1/experience": "c6f5acc6457a0ffa",
    "dense_6x15/additive/deadline3/plain": "3687b9174947c37c",
    "dense_6x15/additive/deadline3/experience": "f762ea21ba3fdcc5",
    "dense_7x16/additive/deadline1/plain": "be7197bbc9ecdfd4",
    "dense_7x16/additive/deadline1/experience": "be7197bbc9ecdfd4",
    "dense_7x16/additive/deadline3/plain": "ca279ade87cb1e26",
    "dense_7x16/additive/deadline3/experience": "661a6017348ad18f",
    "hub/additive/deadline1/plain": "ab52fe1775a9ab31",
    "hub/additive/deadline1/experience": "ab52fe1775a9ab31",
    "hub/additive/deadline3/plain": "cc6e905ddcaa44cb",
    "hub/additive/deadline3/experience": "2fa58365b9a4a02a",
    "tree_17/additive/deadline1/plain": "9f0b9f82afb2960f",
    "tree_17/additive/deadline1/experience": "9f0b9f82afb2960f",
    "tree_17/additive/deadline3/plain": "9f9a824efc38fdc3",
    "tree_17/additive/deadline3/experience": "17f58472d151932e",
    "exclusive_head/additive/deadline1/plain": "be7197bbc9ecdfd4",
    "exclusive_head/additive/deadline1/experience": "be7197bbc9ecdfd4",
    "exclusive_head/additive/deadline3/plain": "5cfb60de8207f3dd",
    "exclusive_head/additive/deadline3/experience": "707e63a57a483144",
    # The ten instances below: recorded as in ``KERNEL_GOLDEN``.
    "dense_5x12/additive/mid/plain": "9d195134c0be3ddb",
    "dense_5x12/additive/mid/experience": "396c9ae714f1ac5a",
    "dense_5x12/additive/deadline1/plain": "73baf43904e7dcd7",
    "dense_5x12/additive/deadline1/experience": "73baf43904e7dcd7",
    "dense_5x12/additive/deadline3/plain": "213ea36deaa25f38",
    "dense_5x12/additive/deadline3/experience": "3a029a3f4bf2887d",
    "dense_6x14/additive/mid/plain": "5d9ee3731151eb62",
    "dense_6x14/additive/mid/experience": "b70fca2a2d321b61",
    "dense_6x14/additive/deadline1/plain": "c6f5acc6457a0ffa",
    "dense_6x14/additive/deadline1/experience": "c6f5acc6457a0ffa",
    "dense_6x14/additive/deadline3/plain": "f8b2e25039b07fd7",
    "dense_6x14/additive/deadline3/experience": "866d2ce99fe8474f",
    "dense_6x16/additive/mid/plain": "f4356f7dd3131ac6",
    "dense_6x16/additive/mid/experience": "1d782e6fc40d7ed1",
    "dense_6x16/additive/deadline1/plain": "c6f5acc6457a0ffa",
    "dense_6x16/additive/deadline1/experience": "c6f5acc6457a0ffa",
    "dense_6x16/additive/deadline3/plain": "eecec4a03254514f",
    "dense_6x16/additive/deadline3/experience": "15358cdb2a52dab6",
    "dense_7x14/additive/mid/plain": "e9a0702d88dec894",
    "dense_7x14/additive/mid/experience": "32c2748a25c7e2ab",
    "dense_7x14/additive/deadline1/plain": "be7197bbc9ecdfd4",
    "dense_7x14/additive/deadline1/experience": "be7197bbc9ecdfd4",
    "dense_7x14/additive/deadline3/plain": "6b98b41bc5f94410",
    "dense_7x14/additive/deadline3/experience": "4a7ccff1943a9c02",
    "tree_29/additive/mid/plain": "801df11207a4c7a2",
    "tree_29/additive/mid/experience": "770585d1794f6830",
    "tree_29/additive/deadline1/plain": "3ec998e012ccc367",
    "tree_29/additive/deadline1/experience": "3ec998e012ccc367",
    "tree_29/additive/deadline3/plain": "272117593548abef",
    "tree_29/additive/deadline3/experience": "4639c84f73308304",
    "tree_41/additive/mid/plain": "d993b39b7e0672df",
    "tree_41/additive/mid/experience": "f02f42ed4d5fe5ce",
    "tree_41/additive/deadline1/plain": "a31a88181bb0e603",
    "tree_41/additive/deadline1/experience": "a31a88181bb0e603",
    "tree_41/additive/deadline3/plain": "10f3eeb872e4859a",
    "tree_41/additive/deadline3/experience": "fe997946dd7df70c",
    "tree_53/additive/mid/plain": "66e293d5edd8c0eb",
    "tree_53/additive/mid/experience": "1a9fc59ddd7af16c",
    "tree_53/additive/deadline1/plain": "b6f99a7d369ff974",
    "tree_53/additive/deadline1/experience": "b6f99a7d369ff974",
    "tree_53/additive/deadline3/plain": "4c9fb4d702fc72f2",
    "tree_53/additive/deadline3/experience": "5afe08333322aee1",
    "hub_small/additive/mid/plain": "f76ae495f9065596",
    "hub_small/additive/mid/experience": "8bd6be18fc4f3c05",
    "hub_small/additive/deadline1/plain": "d7d74ba9edaa2b81",
    "hub_small/additive/deadline1/experience": "d7d74ba9edaa2b81",
    "hub_small/additive/deadline3/plain": "4d5e14e932710fae",
    "hub_small/additive/deadline3/experience": "760b82389858ef15",
    "hub_wide/additive/mid/plain": "32a96a0a96071c3d",
    "hub_wide/additive/mid/experience": "a42d61e53f73f923",
    "hub_wide/additive/deadline1/plain": "ad224d7d71f9c1c1",
    "hub_wide/additive/deadline1/experience": "ad224d7d71f9c1c1",
    "hub_wide/additive/deadline3/plain": "3ec817afaec645db",
    "hub_wide/additive/deadline3/experience": "10eaced1d099cef8",
    "exclusive_head_wide/additive/mid/plain": "b20a5a506cf5cf89",
    "exclusive_head_wide/additive/mid/experience": "fbc1cc85ece73fc3",
    "exclusive_head_wide/additive/deadline1/plain": "fca41030016dee99",
    "exclusive_head_wide/additive/deadline1/experience": "fca41030016dee99",
    "exclusive_head_wide/additive/deadline3/plain": "24c711346a7e288b",
    "exclusive_head_wide/additive/deadline3/experience": "527ff48ca4bb7f76",
}


class TickClock:
    """A ``time`` stand-in whose ``perf_counter`` advances one tick per
    read: a deadline of ``k`` ticks fires at the search's ``k``-th poll."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


def kernel_digest(instance, budget, collect_experience, clock=None, polls=0):
    """Digest of everything the search reports, over every forest root:
    ``(opt, selections, nodes_expanded, memo_hits, complete)`` and the
    experience tuples in recording order.  With a ``clock`` (installed as
    the search's ``_time``) each root restarts it and runs under a
    deadline that fires at poll ``polls``, and ``deadline_hit`` joins the
    digest."""
    roots, tasks, sequences, workers_by_id = GOLDEN_INSTANCES[instance]()
    digest = hashlib.sha256()
    for root in roots:
        if clock is not None:
            clock.now = 0.0
        result = dfsearch_bnb(
            root,
            tasks,
            sequences,
            workers_by_id,
            node_budget=budget,
            collect_experience=collect_experience,
            deadline=float(polls) if clock is not None else None,
        )
        reported = (
            result.opt,
            result.selections,
            result.nodes_expanded,
            result.memo_hits,
            result.complete,
        )
        if clock is not None:
            reported += (result.deadline_hit,)
        digest.update(repr(reported).encode())
        digest.update(repr(result.experience).encode())
    return digest.hexdigest()[:16]


class TestSearchKernelGolden:
    """The branch-and-bound kernel is pinned bit for bit: any change to
    which candidates it visits, in which order, or which bound it computes
    moves at least one digest."""

    @pytest.mark.parametrize("collect_experience", [False, True], ids=["plain", "experience"])
    @pytest.mark.parametrize("budget", ["ample", "starved"])
    @pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
    def test_kernel_matches_golden(self, instance, budget, collect_experience):
        node_budget = AMPLE_BUDGET if budget == "ample" else STARVED_BUDGET
        key = f"{instance}/additive/{budget}/{'experience' if collect_experience else 'plain'}"
        assert kernel_digest(instance, node_budget, collect_experience) == KERNEL_GOLDEN[key]

    def test_starved_budget_cuts_every_instance(self):
        for instance, build in GOLDEN_INSTANCES.items():
            roots, tasks, sequences, workers_by_id = build()
            results = [
                dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=STARVED_BUDGET)
                for root in roots
            ]
            assert not all(r.complete for r in results), instance

    @pytest.mark.parametrize("collect_experience", [False, True], ids=["plain", "experience"])
    @pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
    def test_mid_budget_matches_golden(self, instance, collect_experience):
        key = f"{instance}/additive/mid/{'experience' if collect_experience else 'plain'}"
        digest = kernel_digest(instance, MID_BUDGET[instance], collect_experience)
        assert digest == CUT_GOLDEN[key]

    def test_mid_budget_cuts_every_instance(self):
        for instance, build in GOLDEN_INSTANCES.items():
            roots, tasks, sequences, workers_by_id = build()
            results = [
                dfsearch_bnb(
                    root, tasks, sequences, workers_by_id, node_budget=MID_BUDGET[instance]
                )
                for root in roots
            ]
            assert not all(r.complete for r in results), instance
            assert sum(r.nodes_expanded for r in results) > MID_BUDGET[instance] // 2

    @pytest.mark.parametrize("collect_experience", [False, True], ids=["plain", "experience"])
    @pytest.mark.parametrize("polls", DEADLINE_POLLS)
    @pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
    def test_deadline_cut_matches_golden(self, monkeypatch, instance, polls, collect_experience):
        clock = TickClock()
        monkeypatch.setattr(dfsearch_module, "_time", clock)
        key = f"{instance}/additive/deadline{polls}/{'experience' if collect_experience else 'plain'}"
        digest = kernel_digest(
            instance, AMPLE_BUDGET, collect_experience, clock=clock, polls=polls
        )
        assert digest == CUT_GOLDEN[key]

    def test_deadline_cut_fires_at_the_polled_expansion(self, monkeypatch):
        clock = TickClock()
        monkeypatch.setattr(dfsearch_module, "_time", clock)
        roots, tasks, sequences, workers_by_id = GOLDEN_INSTANCES["dense_6x15"]()
        for polls, expanded in ((1, 0), (3, 2 * dfsearch_module._DEADLINE_CHECK_INTERVAL)):
            clock.now = 0.0
            result = dfsearch_bnb(
                roots[0], tasks, sequences, workers_by_id,
                node_budget=AMPLE_BUDGET, deadline=float(polls),
            )
            assert result.deadline_hit and not result.complete
            assert clock.now == polls
            assert result.nodes_expanded == expanded


class TestAnytimeOnGoldenShapes:
    """The anytime guarantee on the golden shapes, whose dense, hub and
    exclusive-head components the random forests above rarely produce."""

    @pytest.mark.parametrize("budget", [1, 17, 90])
    @pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
    def test_budget_cut_yields_feasible_partial(self, instance, budget):
        roots, tasks, sequences, workers_by_id = GOLDEN_INSTANCES[instance]()
        for root in roots:
            result = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=budget)
            assert result.nodes_expanded <= budget
            assert_feasible(result, sequences)
            assert sorted(wid for wid, _ in result.selections) == sorted(root.all_workers())

    @pytest.mark.parametrize("instance", sorted(GOLDEN_INSTANCES))
    def test_value_never_decreases_with_budget(self, instance):
        roots, tasks, sequences, workers_by_id = GOLDEN_INSTANCES[instance]()
        for root in roots:
            previous = -1
            for budget in (5, 50, 500, AMPLE_BUDGET):
                result = dfsearch_bnb(root, tasks, sequences, workers_by_id, node_budget=budget)
                assert result.opt >= previous
                previous = result.opt
            assert result.complete


class TestPlannerOptimum:
    """The shipped planner plans the oracle pipeline's optimum on the
    dense snapshots and on the contested hub, where the additive bound is
    loose."""

    @pytest.mark.parametrize(
        "snapshot",
        [
            lambda: dense_component_snapshot(6, 15, seed=2),
            lambda: dense_component_snapshot(7, 16, seed=3),
            contested_hub_snapshot,
            lambda: contested_hub_snapshot(num_pinned=10, num_ring=16, seed=3),
        ],
        ids=["dense_6x15", "dense_7x16", "hub", "hub_wide"],
    )
    def test_plans_the_oracle_optimum(self, snapshot):
        workers, tasks = snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        outcome = assert_planner_matches_oracle(planner, workers, tasks, 0.0)
        assert outcome.planned_tasks > 0
        assert reference_plan(workers, tasks, 0.0, TRAVEL).complete
