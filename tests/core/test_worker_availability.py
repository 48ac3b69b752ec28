"""``Worker.is_available`` / ``availability_remaining`` against an oracle.

The product predicates read ``Worker.windows`` directly and spell the
default ``[on, off)`` window out inline; the oracle below is the
definition they replace — evaluate over an explicit list of
:class:`AvailabilityWindow` objects, the whole ``[on, off)`` window when
the worker has none.  Results must agree exactly (``float.hex``), with
``now`` drawn at ``on``, at ``off``, at every window edge and one ulp
either side of each, as well as anywhere in between.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.worker import AvailabilityWindow, Worker
from repro.spatial.geometry import Point


def _oracle_windows(worker):
    if worker.windows:
        return list(worker.windows)
    return [AvailabilityWindow(worker.on_time, worker.off_time)]


def oracle_is_available(worker, now):
    if not worker.on_time <= now < worker.off_time:
        return False
    return any(window.contains(now) for window in _oracle_windows(worker))


def oracle_remaining(worker, now):
    remaining = 0.0
    for window in _oracle_windows(worker):
        if window.contains(now):
            return window.remaining(now)
        if window.start > now:
            remaining = max(remaining, window.duration)
    return remaining


_times = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def workers(draw):
    """A worker with ``[on, off)`` and 0-4 disjoint windows inside it."""
    on = draw(_times)
    off = on + draw(st.floats(min_value=1e-3, max_value=1e4))
    cuts = sorted(
        draw(st.lists(st.floats(min_value=on, max_value=off), max_size=8, unique=True))
    )
    windows = tuple(
        AvailabilityWindow(start, end)
        for start, end in zip(cuts[::2], cuts[1::2])
        if end > start
    )
    return Worker(1, Point(0.0, 0.0), 1.0, on, off, windows=windows)


@st.composite
def worker_and_now(draw):
    worker = draw(workers())
    edges = [worker.on_time, worker.off_time]
    for window in worker.windows:
        edges += [window.start, window.end]
    near_edge = st.sampled_from(edges).flatmap(
        lambda edge: st.sampled_from(
            [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        )
    )
    now = draw(st.one_of(near_edge, _times))
    return worker, now


@settings(deadline=None, max_examples=400)
@given(worker_and_now())
def test_predicates_match_explicit_window_oracle(case):
    worker, now = case
    assert worker.is_available(now) == oracle_is_available(worker, now)
    assert worker.availability_remaining(now).hex() == oracle_remaining(worker, now).hex()


def test_windowless_edges():
    worker = Worker(1, Point(0.0, 0.0), 1.0, 10.0, 50.0)
    for now, available, remaining in (
        (9.0, False, 40.0),  # before on: the whole window is still ahead
        (10.0, True, 40.0),  # at on
        (30.0, True, 20.0),
        (50.0, False, 0.0),  # at off: the window is half-open
        (60.0, False, 0.0),
    ):
        assert worker.is_available(now) is available
        assert worker.availability_remaining(now) == remaining
        assert oracle_is_available(worker, now) is available
        assert oracle_remaining(worker, now) == remaining
