#!/usr/bin/env python3
"""Compare two sets of end-to-end results against ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base: the parent commit, or the first A/A set) and ``B`` are
directories of result files written by ``run.py --out``, one file per
(workload, seed).  For every (end-to-end metric, workload) pair it prints
both medians, B's change relative to A, the spread (distance between
quartiles over the median) and a verdict:

``ok``          B is no worse than A by more than the metric's bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread is wider than the bound, or a set has fewer
                than four runs, so the comparison cannot tell -- unless
                every run of one set beats every run of the other, which
                settles it either way.

When both sets ran the same seeds the comparison is paired: the change is
the median over seeds of B/A - 1 and the spread is that of the per-seed
ratios, which leaves out what differs between instances (the larger part
of a set's own spread).  ``served_rate`` is exact for a seed, so on shared
seeds any drop is a regression whatever the bound.

Exits 1 on any regression, on a higher share of failed operations, or on
a run that reported incorrect output; ``unresolved`` rows do not fail the
comparison but are not a pass either.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Below this many runs the quartiles say nothing.
MIN_RUNS = 4


def load(path: str) -> Dict[str, Dict[int, dict]]:
    """End-to-end results under ``path``: workload -> seed -> result."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for name in files:
        with open(name, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") == 0:
            runs[result["workload"]][result["seed"]] = result
    if not runs:
        raise SystemExit(f"{path}: no end-to-end (--trace 0) results")
    return runs


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median; infinite
    for a set too small to have quartiles."""
    if len(values) < MIN_RUNS:
        return float("inf")
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def failed_share(runs: List[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict_for(metric: dict, a: List[float], b: List[float], paired: bool) -> tuple:
    """``(change of B relative to A, spread, verdict)`` for one pair."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    if paired:
        ratios = [y / x for x, y in zip(a, b)]
        change = statistics.median(ratios) - 1.0
        noise = spread(ratios)
        worse = [sign * (ratio - 1.0) > 0 for ratio in ratios]
        one_sided = all(worse) or not any(worse)
    else:
        change = statistics.median(b) / statistics.median(a) - 1.0
        noise = max(spread(a), spread(b))
        one_sided = min(sign * v for v in b) > max(sign * v for v in a) or max(
            sign * v for v in b
        ) < min(sign * v for v in a)
    if paired and metric["name"] == "served_rate":
        dropped = sum(y < x for x, y in zip(a, b))
        lower = f"regressed (lower on {dropped} of {len(a)} seeds)"
        return change, noise, lower if dropped else "ok"
    if noise > bound and not one_sided:
        return change, noise, "unresolved"
    return change, noise, "regressed" if sign * change > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    base, other = load(argv[0]), load(argv[1])
    status = 0
    print(
        f"{'workload':18s} {'metric':15s} {'A median':>12s} {'B median':>12s} "
        f"{'B vs A':>8s} {'bound':>6s} {'spread':>8s}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base or workload not in other:
            print(f"{workload:18s} missing from one side")
            status = 1
            continue
        paired = sorted(base[workload]) == sorted(other[workload])
        a_runs = [base[workload][seed] for seed in sorted(base[workload])]
        b_runs = [other[workload][seed] for seed in sorted(other[workload])]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            change, noise, verdict = verdict_for(metric, a, b, paired)
            if verdict.startswith("regressed"):
                status = 1
            print(
                f"{workload:18s} {name:15s} {statistics.median(a):12.5g} "
                f"{statistics.median(b):12.5g} {change:+8.1%} {metric['bound']:6.0%} "
                f"{noise:8.1%}  {verdict} (n={len(a)}/{len(b)}"
                f"{', paired by seed' if paired else ''}, {metric['unit']}, base A)"
            )
        a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
        incorrect = [r["seed"] for r in a_runs + b_runs if not r["correct"]]
        verdict = "ok"
        if b_failed > a_failed or incorrect:
            verdict = "regressed"
            status = 1
        print(
            f"{workload:18s} {'failed_ops_share':15s} {a_failed:12.5g} {b_failed:12.5g} "
            f"{'':8s} {'0%':>6s} {'':8s}  {verdict}"
            + (f" (incorrect output, seeds {incorrect})" if incorrect else "")
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
