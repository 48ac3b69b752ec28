"""Host-speed calibration: the benchmark's answer to a noisy shared host.

This host (2 vCPUs of a shared machine) switches between a quiet state and
a contended state that is ~1.4-1.7x slower, in bursts of 1-30 s; identical
replays take 1.35 s or 2.3 s depending on when they run (see README.md,
"Noise evidence").  No within-process statistic of raw times survives that:
a 20 s run can sit entirely inside one burst.

So every timed region is bracketed by -- or interleaved with -- slices of
a fixed reference kernel that lives here, shares nothing with the program
under test, and slows down with the host in the same proportion as the
dispatcher does (interpreted arithmetic, dict/tuple/list churn, small NumPy
calls).  A time is reported as ``raw / slowdown`` where ``slowdown`` is the
co-temporal slice time over :data:`REFERENCE_SLICE_S`: "seconds at the
reference host speed".  A faster planner still shows as faster (the kernel
does not change with the repo); a slower host does not show at all.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: One slice of the kernel on this host class in its quiet state.  Only
#: sets the scale of reported times; steadiness does not depend on it.
REFERENCE_SLICE_S = 0.75e-3

_ARRAY = np.arange(64.0)


def calibration_slice() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300):
        acc += i * i
        table[i & 255] = (i, acc)
        row = [j for j in range(8)]
        acc += int((_ARRAY * _ARRAY).sum()) + len(row)
    return time.perf_counter() - start


def slowdown(slices: Sequence[float]) -> float:
    """Host slowdown factor (1.0 = reference speed) from slice times."""
    return statistics.median(slices) / REFERENCE_SLICE_S


def smoothed_slowdown(slices: Sequence[float]) -> List[float]:
    """Per-slice slowdown, each the median of itself and its neighbours
    (one slice is ~0.7 ms, so a single interrupt can double it)."""
    rel = [s / REFERENCE_SLICE_S for s in slices]
    return [statistics.median(rel[max(0, k - 1): k + 2]) for k in range(len(rel))]


def timed(fn: Callable[[], T], brackets: int = 3) -> Tuple[T, float]:
    """Call ``fn`` between calibration brackets.

    Returns ``(result, seconds at reference speed)``.  Fits
    regions up to a second or so; longer ones should interleave slices
    (see :class:`replay.PacedStrategy`) because the host can change state
    inside them.
    """
    before = [calibration_slice() for _ in range(brackets)]
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = [calibration_slice() for _ in range(brackets)]
    return result, raw / slowdown(before + after)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported value is
    one that was measured)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
