#!/usr/bin/env python3
"""A/B timing of the branch-and-bound kernel on one workload's searches.

    python3 benchmarks/search_kernel.py --against OTHER_TREE [--workload dense_batch]
        [--seed 15] [--passes 20]

Replays every pooled instance of ``benchmarks/e2e``'s workload for the
seed once, through ``workloads.make_platform``, and captures every
``bnb`` ``ComponentJob`` the incremental engine hands to
``run_component_job``.  Then, in this one process, it times
``dfsearch_bnb`` over the captured jobs for ``--passes`` passes of CPU
time, alternating this tree's kernel with another tree's ``dfsearch.py``
(``--against``: that file, or the root of a checkout), loaded by path;
each pass runs both sides, the first side alternating.  It prints each
side's median and quartiles and the per-pass ratio (this tree / other).

Before timing, both kernels run every job once; the script exits 1 if
any job's ``(opt, selections, nodes_expanded, memo_hits, complete)``
differs.  Searches run without a deadline, so the outputs are
deterministic.  Only ``benchmarks/e2e`` modules are imported; nothing
there changes.  Not named ``test_*.py``: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time
from typing import Callable, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(_HERE, "e2e"), os.path.join(os.path.dirname(_HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import demandstage  # noqa: E402
import workloads  # noqa: E402
from repro.assignment import incremental  # noqa: E402
from repro.assignment.executor import ComponentJob  # noqa: E402

KERNEL = os.path.join("src", "repro", "assignment", "dfsearch.py")


def capture_jobs(name: str, seed: Optional[int] = None) -> List[ComponentJob]:
    """Every ``bnb`` job of one replay of each pooled instance, in order."""
    workload = workloads.WORKLOADS[name]
    seed = workload.seed if seed is None else seed
    jobs: List[ComponentJob] = []
    run_job = incremental.run_component_job

    def capturing(job, deadline=None):
        if job.mode == "bnb":
            jobs.append(job)
        return run_job(job, deadline)

    incremental.run_component_job = capturing
    try:
        for instance_seed in workload.seeds(seed):
            inputs = workload.build(instance_seed, 1.0)
            if inputs.demand is not None:
                demandstage.run_demand_stage(inputs, instance_seed, deadline=0.0, at_least=1)
            platform, _ = workloads.make_platform(workload, inputs, lambda inner: inner)
            try:
                platform.run()
            finally:
                platform.close()
    finally:
        incremental.run_component_job = run_job
    return jobs


def load_kernel(path: str):
    """``dfsearch.py`` at ``path`` (a file, or a checkout root) as a module."""
    if os.path.isdir(path):
        path = os.path.join(path, KERNEL)
    spec = importlib.util.spec_from_file_location("other_dfsearch", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def runner(module) -> Callable[[ComponentJob], tuple]:
    """One job through ``module.dfsearch_bnb``, reduced to its outputs."""
    search = module.dfsearch_bnb

    def run(job: ComponentJob) -> tuple:
        result = search(
            job.root,
            None,
            job.sequences_by_worker,
            job.workers_by_id,
            node_budget=job.node_budget,
            collect_experience=job.collect_experience,
            available_ids=job.task_ids,
        )
        return (
            result.opt,
            result.selections,
            result.nodes_expanded,
            result.memo_hits,
            result.complete,
        )

    return run


def cpu_seconds(run: Callable[[ComponentJob], tuple], jobs: List[ComponentJob]) -> float:
    gc.collect()
    began = time.process_time()
    for job in jobs:
        run(job)
    return time.process_time() - began


def summary(values: List[float]) -> str:
    low, median, high = statistics.quantiles(values, n=4)
    return f"median {median:.4f}  quartiles {low:.4f} .. {high:.4f}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="other tree's dfsearch.py or checkout root")
    parser.add_argument("--workload", default="dense_batch", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)

    if args.passes < 2:
        parser.error("--passes must be at least 2 (quartiles)")

    this = runner(importlib.import_module("repro.assignment.dfsearch"))
    other = runner(load_kernel(args.against))
    jobs = capture_jobs(args.workload, args.seed)
    print(f"{len(jobs)} bnb jobs from {args.workload}")

    differ = [i for i, job in enumerate(jobs) if this(job) != other(job)]
    if differ:
        print(f"FAIL: {len(differ)} jobs differ, first at index {differ[0]}")
        return 1
    print("outputs identical on every job")

    times = {"this": [], "other": []}
    sides = [("this", this), ("other", other)]
    for index in range(args.passes):
        for side, run in sides if index % 2 == 0 else sides[::-1]:
            times[side].append(cpu_seconds(run, jobs))
    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    print(f"this  CPU s/pass: {summary(times['this'])}")
    print(f"other CPU s/pass: {summary(times['other'])}")
    print(f"this / other:     {summary(ratios)}  ({args.passes} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
