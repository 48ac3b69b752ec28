"""Rule ``determinism`` — no wall-clock, entropy or environment reads on
deterministic paths.

Every bit-for-bit guarantee in this repo (checkpoint resume,
incremental-vs-full replay) requires planning output to
be a pure function of the simulated event stream.  This rule flags, inside
the configured deterministic packages:

* wall-clock reads — ``time.time`` / ``monotonic`` / ``perf_counter``
  (and their ``_ns`` variants), ``datetime.now`` / ``utcnow`` / ``today``;
* global-state randomness — module-level ``random.*`` functions,
  ``numpy.random.*`` legacy global-state functions, and *unseeded*
  constructions of ``random.Random`` / ``numpy.random.default_rng`` /
  ``numpy.random.RandomState`` (seeded constructions are the blessed
  pattern and pass);
* entropy — ``uuid.uuid1`` / ``uuid.uuid4``, ``os.urandom``, ``secrets.*``;
* environment reads — ``os.environ`` / ``os.getenv``.

Legitimate sites (deadline arming, wall-clock metrics fields excluded from
``deterministic_state``, config entry points) are declared in the
allowlist registry (:mod:`repro.analysis.registry`) with written reasons,
or suppressed inline with ``# repro: allow[determinism] -- reason``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Project, Rule, SourceModule, resolve_dotted

#: Wall-clock symbols, flagged on any call.
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

#: Entropy sources, flagged on any call.
ENTROPY = {"uuid.uuid1", "uuid.uuid4", "os.urandom"}

#: Seedable RNG constructors: flagged only when called with no arguments
#: (an unseeded construction draws OS entropy).
SEEDABLE = {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}

#: ``random`` / ``numpy.random`` attributes that are NOT global-state
#: draws (classes/constructors handled by SEEDABLE, or pure namespaces).
NON_GLOBAL_RANDOM = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
}

#: Environment-read symbols; ``os.environ`` also matches attribute /
#: subscript reads (``os.environ["X"]``, ``os.environ.get``).
ENV_READS = {"os.getenv", "os.environb"}


class DeterminismRule(Rule):
    rule_id = "determinism"
    description = (
        "no wall-clock, unseeded randomness or environment reads inside "
        "the deterministic packages"
    )

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    def check(self, project: Project) -> Iterable[Finding]:
        used_allowlist: Set[int] = set()
        for module in project:
            if not self.config.is_deterministic_module(module.relpath):
                continue
            for finding in self._check_module(module):
                allowed = False
                for idx, entry in enumerate(self.config.determinism_allowlist):
                    if entry.matches(module.relpath, finding.symbol):
                        used_allowlist.add(idx)
                        allowed = True
                        break
                if not allowed:
                    yield finding
        if self.config.check_stale_registry:
            for idx, entry in enumerate(self.config.determinism_allowlist):
                if idx not in used_allowlist:
                    yield Finding(
                        rule="stale-registry",
                        path=entry.path_suffix,
                        line=0,
                        message=(
                            f"determinism allowlist entry "
                            f"({entry.path_suffix!r}, {entry.symbol!r}) matched "
                            "nothing — remove it or fix the path/symbol"
                        ),
                        symbol=entry.symbol,
                    )

    # ------------------------------------------------------------------ #
    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        aliases = module.aliases

        def finding(node: ast.AST, symbol: str, what: str) -> Finding:
            return Finding(
                rule=self.rule_id,
                path=module.relpath,
                line=getattr(node, "lineno", 0),
                message=f"{what}: `{symbol}` on a deterministic path",
                symbol=symbol,
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                symbol = resolve_dotted(node.func, aliases)
                if symbol is None:
                    continue
                if symbol in WALL_CLOCK:
                    yield finding(node, symbol, "wall-clock read")
                elif symbol in ENTROPY or symbol.startswith("secrets."):
                    yield finding(node, symbol, "entropy source")
                elif symbol in SEEDABLE:
                    if not node.args and not node.keywords:
                        yield finding(node, symbol, "unseeded RNG construction")
                elif symbol in ENV_READS:
                    yield finding(node, symbol, "environment read")
                elif (
                    symbol.startswith("random.")
                    and symbol.count(".") == 1
                    and symbol not in NON_GLOBAL_RANDOM
                ):
                    yield finding(node, symbol, "global-state randomness")
                elif (
                    symbol.startswith("numpy.random.")
                    and symbol not in NON_GLOBAL_RANDOM
                ):
                    yield finding(node, symbol, "global-state randomness")
            elif isinstance(node, (ast.Attribute, ast.Name)):
                # Non-call reads of os.environ (subscripts, .get chains):
                # resolve the chain and flag the os.environ root exactly
                # once per outermost reference.
                # Exactly the chain `os.environ` (longer chains like
                # `os.environ.get` resolve to a different string and are
                # reported once via their inner `os.environ` node).
                symbol = resolve_dotted(node, aliases)
                if symbol == "os.environ":
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=node.lineno,
                        message="environment read: `os.environ` on a deterministic path",
                        symbol="os.environ",
                    )
