#!/usr/bin/env python3
"""End-to-end benchmark of the DATA-WA dispatcher.

    python3 benchmarks/e2e/run.py                      # every workload, both modes
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is a separate run that produces the per-layer account (see
:mod:`traced`).  Every metric is printed by name with its unit, outputs
are checked, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Names, units and
regression bounds are the ones ``BENCHMARK.json`` declares; README.md
explains the workloads and the estimator.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

_PINNED = "DATAWA_E2E_PINNED"
#: Scratch space (journals, traces, default ``--out``); git-ignored.
WORK_ROOT = os.path.join(HERE, ".work")


def pin_environment() -> None:
    """Re-exec once into a fixed environment: hash seed, BLAS threads, and
    none of the ``REPRO_*`` switches that change what the planner does."""
    if os.environ.get(_PINNED) == "1":
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env[_PINNED] = "1"
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def run_one(args, contract) -> int:
    pin_environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e: no src/repro beside it; nothing to measure", file=sys.stderr)
        return 2
    # Only now: these import ``repro``, which the check above vouches for.
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        mode = measure.measure_per_layer if args.trace else measure.measure_end_to_end
        result = mode(workload, seed, args.seconds, workdir, contract)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=workload.name, seed=seed, trace=args.trace)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{workload.name}.seed{seed}.trace{args.trace}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    for key in ("workload", "seed", "trace"):
        del result[key]
    print(json.dumps(result))
    # A failed output check fails the run; it is not a number to aggregate.
    return 0 if result["correct"] else 1


def run_all(args, contract) -> int:
    """Every workload in its own process, end-to-end then per-layer."""
    out = args.out or os.path.join(WORK_ROOT, "results")
    status = 0
    began = time.perf_counter()
    for workload in contract["workloads"]:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload["name"],
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", out,
            ]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            print(f"== {workload['name']} --trace {trace}", flush=True)
            status |= subprocess.run(command, check=False).returncode
    print(f"== all workloads in {time.perf_counter() - began:.0f} s; results in {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the result as JSON into this directory")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, contract)
    args.trace = args.trace or 0
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
