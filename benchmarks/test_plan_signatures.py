"""Plans are a pure function of the event stream: committed goldens.

``plan_signatures.json`` holds the three digests of every ``benchmarks/e2e``
workload at a quarter of its size, on its default and held-out seeds (see
``plan_signatures.py``).  The sweep runs in two subprocesses, under
``PYTHONHASHSEED`` 1 and 2, so an output that follows set or dict-of-set
iteration order moves a digest under one of them.  A failure names the
hash seed, workload, seed and digest that moved; a change meant to move
plans regenerates the file with ``python benchmarks/plan_signatures.py
--regenerate`` and says why each digest moved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "plan_signatures.json"
HASH_SEEDS = ("1", "2")

_SWEEP = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "import plan_signatures; print(json.dumps(plan_signatures.goldens()))"
)


def test_plan_signatures_match_goldens():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    runs = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-c", _SWEEP, str(HERE)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in HASH_SEEDS
    }
    try:
        outputs = {hash_seed: process.communicate(timeout=300) for hash_seed, process in runs.items()}
    finally:
        for process in runs.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    moved = []
    for hash_seed, (out, err) in outputs.items():
        assert runs[hash_seed].returncode == 0, f"PYTHONHASHSEED={hash_seed} sweep failed:\n{err}"
        result = json.loads(out)
        assert sorted(result) == sorted(golden), "the workload set changed: regenerate"
        for name, by_seed in golden.items():
            for seed, digests in by_seed.items():
                for key, expected in digests.items():
                    got = result[name][seed][key]
                    if got != expected:
                        moved.append(
                            f"PYTHONHASHSEED={hash_seed} {name} seed {seed} {key}: "
                            f"{got} != golden {expected}"
                        )
    assert not moved, "plan signatures moved:\n" + "\n".join(moved)
