"""The closed forms of the search against an oracle that shares no code
with them.

:func:`repro.assignment.dfsearch.dfsearch_one_worker` stands in for the
branch-and-bound search on every one-worker component, and its answer is
cached as that search's.  So it must equal ``dfsearch_bnb`` on a
one-worker leaf tree — selections, ``opt`` and ``nodes_expanded == 1`` —
and, independently of the search code, the longest fully-available
candidate, the first in ``Q_w`` order among equal lengths.

``dfsearch_bnb`` solves the last worker of a childless node by the same
rule, so the two agreeing is no evidence on its own: :func:`brute_force`
(which imports nothing from the search modules) is the optimum of small
flat and two-level trees, and the search must reach it with a feasible
selection.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.assignment.dfsearch import dfsearch_bnb, dfsearch_one_worker
from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point

WORKER = Worker(7, Point(0.0, 0.0), 5.0, 0.0, 100.0)
#: Few task ids, so candidates overlap, repeat lengths and tie often.
TASKS = {tid: Task(tid, Point(float(tid), 1.0), 0.0, 50.0) for tid in range(6)}

id_lists = st.lists(
    st.lists(st.sampled_from(sorted(TASKS)), max_size=4, unique=True), max_size=8
)

#: The task pool of the multi-worker trees: ten tasks, split in two halves
#: for the two-level tree's independent child subtrees.
POOL = {tid: Task(tid, Point(float(tid), 2.0), 0.0, 50.0) for tid in range(10)}
LOW, HIGH = sorted(POOL)[:5], sorted(POOL)[5:]


def q_w_from(task_ids):
    """Up to 8 candidates of 1-3 distinct tasks drawn from ``task_ids``."""
    return st.lists(
        st.lists(st.sampled_from(task_ids), min_size=1, max_size=3, unique=True),
        max_size=8,
    )


def brute_force(q_w, available):
    """The longest candidate whose tasks are all available; the first in
    ``Q_w`` order on a tie; ``()`` when none is."""
    fits = [ids for ids in q_w if set(ids) <= available]
    longest = max((len(ids) for ids in fits), default=0)
    for ids in fits:
        if len(ids) == longest:
            return tuple(ids)
    return ()


def brute_force_opt(q_ws, available):
    """Most tasks ``k`` workers can take: one candidate or nothing each,
    every chosen task available and no task chosen twice."""

    def best(k, free):
        if k == len(q_ws):
            return 0
        value = best(k + 1, free)  # worker k takes nothing
        for ids in q_ws[k]:
            if set(ids) <= free:
                value = max(value, len(ids) + best(k + 1, free - set(ids)))
        return value

    return best(0, frozenset(available))


def as_sequences(q_w, worker=WORKER, tasks=TASKS):
    return [TaskSequence(worker, [tasks[tid] for tid in ids]) for ids in q_w]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    q_w=id_lists,
    order=st.sampled_from(["rank", "shuffled"]),
    shuffle=st.randoms(use_true_random=False),
    available=st.frozensets(st.sampled_from(sorted(TASKS))),
)
# Empty Q_w; nothing available; ties where the first tied candidate is
# partly unavailable, and where it is available.
@example(q_w=[], order="rank", shuffle=None, available=frozenset(TASKS))
@example(q_w=[[0, 1], [2]], order="rank", shuffle=None, available=frozenset())
@example(q_w=[[0, 1], [2, 3], [4, 5]], order="rank", shuffle=None, available=frozenset({2, 3, 4, 5}))
@example(q_w=[[2], [0, 1], [3, 4]], order="shuffled", shuffle=None, available=frozenset(TASKS))
def test_closed_form_matches_search_and_brute_force(q_w, order, shuffle, available):
    if order == "rank":
        # Q_w as the enumerator ranks it: longest first.
        q_w = sorted(q_w, key=len, reverse=True)
    elif shuffle is not None:
        shuffle.shuffle(q_w)
    sequences = as_sequences(q_w)
    wid = WORKER.worker_id

    closed = dfsearch_one_worker(wid, sequences, available)
    searched = dfsearch_bnb(
        PartitionNode([wid]), None, {wid: sequences}, {}, available_ids=available
    )
    assert closed.selections == searched.selections
    assert closed.opt == searched.opt
    assert closed.nodes_expanded == searched.nodes_expanded == 1

    expected = brute_force(q_w, available)
    assert closed.selections == [(wid, expected)]
    assert closed.opt == len(expected)


@st.composite
def small_trees(draw):
    """A flat tree of 2-4 workers over the whole pool, or a two-level tree
    whose root worker reads the whole pool and whose two child subtrees
    (one and two workers) read disjoint halves: sibling subtrees are
    independent, as in every partition tree."""
    if draw(st.booleans()):
        pools = [sorted(POOL)] * draw(st.integers(2, 4))
        root = PartitionNode(list(range(len(pools))))
    else:
        pools = [sorted(POOL), LOW, HIGH, HIGH]
        root = PartitionNode([0], [PartitionNode([1]), PartitionNode([2, 3])])
    q_ws = [draw(q_w_from(pool)) for pool in pools]
    available = draw(st.frozensets(st.sampled_from(sorted(POOL)), min_size=4))
    return root, q_ws, available


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=small_trees())
def test_search_reaches_the_brute_force_optimum(problem):
    root, q_ws, available = problem
    workers = [Worker(wid, Point(0.0, 0.0), 5.0, 0.0, 100.0) for wid in range(len(q_ws))]
    sequences = {
        wid: as_sequences(q_w, workers[wid], POOL) for wid, q_w in enumerate(q_ws)
    }
    result = dfsearch_bnb(root, None, sequences, {}, available_ids=available)

    assert result.complete
    assert result.opt == brute_force_opt(q_ws, available)
    assert sorted(wid for wid, _ in result.selections) == list(range(len(q_ws)))
    used = [tid for _, ids in result.selections for tid in ids]
    assert len(used) == len(set(used)) == result.opt
    assert set(used) <= available
    for wid, ids in result.selections:
        assert not ids or list(ids) in q_ws[wid]
