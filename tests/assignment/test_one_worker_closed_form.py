"""The one-worker closed form against its two oracles.

:func:`repro.assignment.dfsearch.dfsearch_one_worker` stands in for the
branch-and-bound search on every one-worker component, and its answer is
cached as that search's.  So it must equal ``dfsearch_bnb`` on a
one-worker leaf tree — selections, ``opt`` and ``nodes_expanded == 1`` —
and, independently of the search code, the longest fully-available
candidate, the first in ``Q_w`` order among equal lengths.
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


def brute_force(q_w, available):
    """The longest candidate whose tasks are all available; the first in
    ``Q_w`` order on a tie; ``()`` when none is."""
    fits = [ids for ids in q_w if set(ids) <= available]
    longest = max((len(ids) for ids in fits), default=0)
    for ids in fits:
        if len(ids) == longest:
            return tuple(ids)
    return ()


def as_sequences(q_w):
    return [TaskSequence(WORKER, [TASKS[tid] for tid in ids]) for ids in q_w]


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
