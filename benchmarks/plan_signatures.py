#!/usr/bin/env python3
"""Fingerprints of one benchmark workload's replays, for identity checks.

    python3 benchmarks/plan_signatures.py --workload yueche_stream [--seed 12]
    python3 benchmarks/plan_signatures.py --regenerate

Replays every pooled instance of ``benchmarks/e2e``'s workload for the
seed (default: the workload's own) once, through
``workloads.make_platform``, and prints three SHA-256 digests:

* ``signatures`` -- one record per ``plan()`` call: the assignment in
  order, planned tasks, nodes expanded, components, reused / searched
  components, reused / recomputed workers, rung and repairs;
* ``state`` -- every instance's ``deterministic_state()``;
* ``journal`` -- the write-ahead journal entries without ``cpu``
  (durable workloads only; ``-`` otherwise).

A change meant to be bit-identical must leave all three unchanged: run
the script in both trees and compare the lines.  ``didi_datawa`` shows the
planner one DDGNN replica's predicted tasks, as the benchmark does.  Only
``benchmarks/e2e`` modules are imported; nothing there changes.  Not named
``test_*.py``: pytest does not collect it.

``--regenerate`` rewrites ``plan_signatures.json``: the digests of every
workload at a quarter of its size, on its default and held-out seeds,
which ``test_plan_signatures.py`` holds the tree to.  Regenerate only in a
change that moves plans on purpose, and give the reason for every digest
that moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(_HERE, "e2e"), os.path.join(os.path.dirname(_HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import demandstage  # noqa: E402
import workloads  # noqa: E402

#: The committed goldens and the workload size they are taken at.
GOLDEN_PATH = os.path.join(_HERE, "plan_signatures.json")
GOLDEN_SCALE = 0.25


class RecordingStrategy:
    """Delegates to the strategy under test and records, for every plan
    call, the outcome the platform consumes."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls: List[list] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def consume_last_outcome(self):
        outcome = self._inner.consume_last_outcome()
        if outcome is not None:
            self.calls.append(
                [
                    [[p.worker.worker_id, list(p.sequence.task_ids)] for p in outcome.assignment],
                    outcome.planned_tasks,
                    outcome.nodes_expanded,
                    outcome.num_components,
                    outcome.reused_components,
                    outcome.searched_components,
                    outcome.reused_workers,
                    outcome.recomputed_workers,
                    outcome.rung,
                    outcome.repairs,
                ]
            )
        return outcome


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def signatures(name: str, seed: Optional[int] = None, scale: float = 1.0) -> dict:
    """The three digests of ``name`` at ``seed`` and ``scale``, and the
    plan-call count."""
    workload = workloads.WORKLOADS[name]
    seed = workload.seed if seed is None else seed
    calls, states, entries = [], [], []
    with tempfile.TemporaryDirectory() as workdir:
        for instance_seed in workload.seeds(seed):
            inputs = workload.build(instance_seed, scale)
            if inputs.demand is not None:
                demandstage.run_demand_stage(inputs, instance_seed, deadline=0.0, at_least=1)
            durable = workloads.durability(workdir, str(instance_seed)) if workload.durable else {}
            platform, strategy = workloads.make_platform(
                workload, inputs, RecordingStrategy, **durable
            )
            try:
                states.append(platform.run().deterministic_state())
            finally:
                platform.close()
            calls.append(strategy.calls)
            if durable:
                journal = durable["journal"]
                journal.close()
                entries.append(
                    [{k: v for k, v in e.items() if k != "cpu"} for e in journal.entries()]
                )
    return {
        "plan_calls": sum(map(len, calls)),
        "signatures": _digest(calls),
        "state": _digest(states),
        "journal": _digest(entries) if workload.durable else "-",
    }


def goldens() -> dict:
    """Every workload's :func:`signatures` at :data:`GOLDEN_SCALE`, keyed
    by workload name, then by its default and held-out seed."""
    return {
        name: {
            str(seed): signatures(name, seed, GOLDEN_SCALE)
            for seed in (workload.seed, workload.heldout_seed)
        }
        for name, workload in sorted(workloads.WORKLOADS.items())
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument(
        "--regenerate", action="store_true", help=f"rewrite {os.path.basename(GOLDEN_PATH)}"
    )
    args = parser.parse_args(argv)
    if args.regenerate:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(goldens(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --regenerate is given")
    result = signatures(args.workload, args.seed)
    for key, value in result.items():
        print(f"{key:11s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
