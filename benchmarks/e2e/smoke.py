#!/usr/bin/env python3
"""Self-check of the harness, in ~15 s and in one process.

    PYTHONHASHSEED=0 python3 benchmarks/e2e/smoke.py

Runs every workload at 5 % of its size in both modes and verifies that
each result carries exactly the metrics ``BENCHMARK.json`` declares and
that the output checks pass.  Numbers from this size mean nothing.

Deliberately not named ``test_*.py``: the repo's tier-1 ``pytest`` run
collects ``benchmarks/``, and this PR must not change what that run does.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import run  # first: puts this directory and src/ on sys.path

import demandstage
import measure
import workloads

SCALE = 0.05
SECONDS = 0.2


def main() -> int:
    # The demand stage's cost is set by the grid, not by the instance, so
    # shrinking the instance does not shrink it; shrink the fit instead.
    workloads.TRAIN_WINDOWS = 2 * workloads.BATCH_SIZE
    demandstage.FIT_EPOCHS = 1

    contract = run.load_contract()
    declared = {
        0: {metric["name"] for metric in contract["end_to_end"]},
        1: {metric["name"] for metric in contract["per_layer"]},
    }
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT)
    began = time.perf_counter()
    failures = []
    try:
        for entry in contract["workloads"]:
            workload = workloads.WORKLOADS[entry["name"]]
            for trace, mode in enumerate(
                (measure.measure_end_to_end, measure.measure_per_layer)
            ):
                result = mode(workload, workload.seed, SECONDS, workdir, contract, scale=SCALE)
                if set(result["metrics"]) != declared[trace]:
                    failures.append(f"{workload.name} --trace {trace}: metric set differs")
                if not result["correct"]:
                    failures.append(f"{workload.name} --trace {trace}: output check failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print(f"smoke: {len(failures)} failure(s) in {time.perf_counter() - began:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
