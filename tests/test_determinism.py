"""No wall clock, entropy, unseeded RNG or environment read on a
deterministic path.

Every bit-for-bit guarantee of the repo (checkpoint resume, warm vs cold
replay, the plan-signature goldens) needs planning output to be a pure
function of the simulated event stream.  This test walks the AST of every
module in the deterministic packages and flags, after resolving import
aliases (``import time as _time``, ``from time import perf_counter``):

* wall-clock reads: ``time.time`` / ``monotonic`` / ``perf_counter`` (and
  their ``_ns`` forms), ``datetime.now`` / ``utcnow`` / ``today``;
* global-state randomness: module-level ``random.*`` and legacy
  ``numpy.random.*`` draws;
* unseeded ``random.Random()`` / ``default_rng()`` / ``RandomState()``;
* entropy: ``uuid.uuid1`` / ``uuid4``, ``os.urandom``, ``secrets.*``;
* environment reads: ``os.environ`` (any use) and ``os.getenv``.

The check is static on purpose.  A monkeypatched ``time.perf_counter``
would not see a ``from time import ...`` binding or an ``os.environ``
read, and would never reach the deadline branches that small instances
do not take.  The legitimate sites are :data:`ALLOWLIST`, one symbol in
one file each, and an entry that matches nothing fails.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
DETERMINISTIC_PACKAGES = ("assignment", "spatial", "simulation", "resilience", "core")

WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
ENTROPY = {"uuid.uuid1", "uuid.uuid4", "os.urandom"}
#: Flagged only when called with no argument (an unseeded construction).
SEEDABLE = {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
#: ``random`` / ``numpy.random`` names that are not global-state draws.
NON_GLOBAL_RANDOM = SEEDABLE | {
    "random.SystemRandom",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
}
ENV_READS = {"os.getenv", "os.environb"}

#: ``(file under src/repro, symbol, reason)``: the legitimate sites.
ALLOWLIST = (
    (
        "assignment/planner.py",
        "time.perf_counter",
        "deadline arming: the wall-clock budget of a decision point starts "
        "here; planning output is deadline-shaped by contract (degradation "
        "ladder), never cached when degraded",
    ),
    (
        "assignment/executor.py",
        "time.perf_counter",
        "deadline check before a component search starts; an expired "
        "deadline degrades to the greedy fill, which is never cached",
    ),
    (
        "assignment/dfsearch.py",
        "time.perf_counter",
        "deadline polling in the fused search stop test; expiry degrades "
        "to the anytime answer, which is never cached",
    ),
    (
        "simulation/platform.py",
        "time.perf_counter",
        "cpu_times metric (the paper's CPU-time figure); wall-clock by "
        "nature and excluded from SimulationMetrics.deterministic_state",
    ),
)

Violation = Tuple[int, str, str]  # (line, category, symbol)


def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the dotted path it is bound to, for every absolute
    import at any depth."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                root = name.name.split(".")[0]
                aliases[name.asname or root] = name.name if name.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted path of a ``Name`` / ``Attribute`` chain rooted in an import."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


def _category(node: ast.Call, symbol: str) -> Optional[str]:
    if symbol in WALL_CLOCK:
        return "wall clock"
    if symbol in ENTROPY or symbol.startswith("secrets."):
        return "entropy"
    if symbol in SEEDABLE:
        return None if node.args or node.keywords else "unseeded RNG"
    if symbol in ENV_READS:
        return "environment"
    if symbol not in NON_GLOBAL_RANDOM and (
        (symbol.startswith("random.") and symbol.count(".") == 1)
        or symbol.startswith("numpy.random.")
    ):
        return "global-state randomness"
    return None


def violations(path: Path) -> List[Violation]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = _aliases(tree)
    found: List[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            symbol = _resolve(node.func, aliases)
            category = symbol and _category(node, symbol)
            if category:
                found.append((node.lineno, category, symbol))
        elif isinstance(node, (ast.Attribute, ast.Name)):
            # ``os.environ[...]`` and ``os.environ.get(...)`` both hold the
            # exact chain ``os.environ`` once.
            if _resolve(node, aliases) == "os.environ":
                found.append((node.lineno, "environment", "os.environ"))
    return found


@lru_cache(maxsize=None)
def live_violations() -> Tuple[Tuple[str, int, str, str], ...]:
    """``(file, line, category, symbol)`` over the deterministic packages."""
    return tuple(
        (path.relative_to(PACKAGE).as_posix(), line, category, symbol)
        for package in DETERMINISTIC_PACKAGES
        for path in sorted((PACKAGE / package).rglob("*.py"))
        for line, category, symbol in violations(path)
    )


def test_deterministic_packages_read_no_clock_entropy_or_environment():
    allowed = {(path, symbol) for path, symbol, _ in ALLOWLIST}
    leaks = [
        f"{path}:{line}: {category} `{symbol}`"
        for path, line, category, symbol in live_violations()
        if (path, symbol) not in allowed
    ]
    assert not leaks, "non-deterministic reads on a deterministic path:\n" + "\n".join(leaks)


def test_every_allowlist_entry_matches_a_site():
    seen = {(path, symbol) for path, _, _, symbol in live_violations()}
    stale = [(path, symbol) for path, symbol, _ in ALLOWLIST if (path, symbol) not in seen]
    assert not stale, f"allowlist entries that match nothing: {stale}"


def test_every_category_is_flagged_in_the_bad_fixture():
    found = violations(FIXTURES / "det_bad.py")
    assert {symbol for _, _, symbol in found} == {
        "time.time",
        "datetime.datetime.now",
        "time.perf_counter",  # via `from time import perf_counter as pc`
        "uuid.uuid4",
        "random.random",
        "numpy.random.shuffle",
        "random.Random",  # unseeded construction
        "os.getenv",
        "os.environ",
    }
    assert {category for _, category, _ in found} == {
        "wall clock",
        "entropy",
        "global-state randomness",
        "unseeded RNG",
        "environment",
    }


def test_seeded_patterns_pass():
    assert violations(FIXTURES / "det_good.py") == []
