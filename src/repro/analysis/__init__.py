"""repro.analysis — contract-enforcing static analysis for this repo.

An AST-based rule engine (stdlib only) that turns the codebase's
hand-enforced conventions into CI-gated checks:

* ``determinism`` — no wall-clock, unseeded randomness or environment
  reads inside the deterministic packages;
* ``ordered-iteration`` — set iteration order must not reach ordered
  sinks (lists, float sums, tie-breaking min/max, selection);
* ``cache-key`` — every ``PlannerConfig`` field is reflected in the
  incremental ``context_key`` or registered cache-exempt;
* ``metrics-partition`` — every ``SimulationMetrics`` field is read in
  ``deterministic_state()`` or registered wall-clock-exempt.

Run ``python -m repro.analysis`` from the repo root; see the README's
"Static analysis" section and CONTRIBUTING.md for the contracts, the
inline-suppression syntax (``# repro: allow[rule-id] -- reason``) and
the baseline workflow.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.config import (
    AllowEntry,
    AnalysisConfig,
    CacheKeyContract,
    MetricsContract,
)
from repro.analysis.core import Finding, Project, Rule, SourceModule
from repro.analysis.engine import Report, load_modules, run_analysis
from repro.analysis.registry import default_config
from repro.analysis.rules import ALL_RULE_CLASSES, build_rules

__all__ = [
    "AllowEntry",
    "AnalysisConfig",
    "ALL_RULE_CLASSES",
    "Baseline",
    "CacheKeyContract",
    "Finding",
    "MetricsContract",
    "Project",
    "Report",
    "Rule",
    "SourceModule",
    "build_rules",
    "default_config",
    "load_modules",
    "run_analysis",
]
