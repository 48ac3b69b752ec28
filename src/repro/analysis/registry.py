"""The repro project's concrete analysis contracts.

This module is *data*: which packages are deterministic, which call
sites are allowlisted and why, which ``PlannerConfig`` fields are
declared cache-exempt, which ``SimulationMetrics`` fields are wall-clock.
Rules read these through :class:`repro.analysis.config.AnalysisConfig`;
adding a new config knob or metrics field without registering it here
(or reflecting it in the context key / deterministic state) is a CI
failure by design.
"""

from __future__ import annotations

from repro.analysis.config import (
    AllowEntry,
    AnalysisConfig,
    CacheKeyContract,
    MetricsContract,
)

#: Packages whose outputs must be a pure function of the simulated input
#: stream: the bit-for-bit contracts (checkpoint resume,
#: incremental-vs-full replay) all live here.
DETERMINISTIC_GLOBS = (
    "*repro/assignment/*",
    "*repro/spatial/*",
    "*repro/simulation/*",
    "*repro/resilience/*",
    "*repro/core/*",
)

#: Legitimate wall-clock / environment reads on the deterministic paths.
#: Each entry allows one symbol in one file — a new call to the same
#: symbol elsewhere still fails, and a new *symbol* in these files fails.
DETERMINISM_ALLOWLIST = (
    AllowEntry(
        "assignment/planner.py",
        "time.perf_counter",
        "deadline arming: the wall-clock budget of a decision point starts "
        "here; planning output is deadline-shaped by contract (degradation "
        "ladder), never cached when degraded",
    ),
    AllowEntry(
        "assignment/executor.py",
        "time.perf_counter",
        "deadline check before a component search starts; an expired "
        "deadline degrades to the greedy fill, which is never cached",
    ),
    AllowEntry(
        "assignment/dfsearch.py",
        "time.perf_counter",
        "deadline polling in the fused search stop test; expiry degrades "
        "to the anytime answer, which is never cached",
    ),
    AllowEntry(
        "simulation/platform.py",
        "time.perf_counter",
        "cpu_times metric (the paper's CPU-time figure); wall-clock by "
        "nature and excluded from SimulationMetrics.deterministic_state",
    ),
)

#: PlannerConfig fields that may legitimately stay out of the incremental
#: engine's ``context_key``.  Every other field MUST appear in the key —
#: a new knob that changes planning behaviour but not the key would let
#: stale cached replans leak across configurations.
CACHE_EXEMPT_FIELDS = {
    "travel_model": (
        "identity-tracked separately (the engine keeps a strong reference "
        "and is-checks it per plan); arbitrary model objects don't belong "
        "in a hashable key tuple"
    ),
    "incremental_replan": (
        "when disabled every plan runs on a throw-away empty cache, so "
        "the key cannot go stale through it"
    ),
    "deadline_s": (
        "deadline-degraded component answers are never written to the "
        "cache, so cached entries are valid under any deadline setting"
    ),
    "self_check": (
        "audit-only toggle: detects cache corruption, never changes the "
        "planning output"
    ),
    "executor": "kept for the frozen e2e harness; always serial",
}

#: SimulationMetrics fields excluded from ``deterministic_state()``.
#: Every other field must be read inside that method — the bit-for-bit
#: checkpoint/recovery contract is exactly this partition.
METRICS_WALL_CLOCK_EXEMPT = {
    "parallel_components": "kept for the frozen e2e harness; always 0",
    "executor_overhead_s": "kept for the frozen e2e harness; always 0",
    "latency_by_class": (
        "streaming histograms over the same wall-clock measurements as "
        "cpu_times (replan latency per epoch class); only sample counts "
        "could ever agree across runs, and those are already covered by "
        "num_cpu_samples / degradation_rungs"
    ),
}


def default_config() -> AnalysisConfig:
    """The live-tree configuration ``python -m repro.analysis`` runs with."""
    return AnalysisConfig(
        deterministic_globs=DETERMINISTIC_GLOBS,
        determinism_allowlist=DETERMINISM_ALLOWLIST,
        cache_key=CacheKeyContract(
            config_module="assignment/planner.py",
            config_class="PlannerConfig",
            key_module="assignment/incremental.py",
            key_var="context_key",
            exempt=CACHE_EXEMPT_FIELDS,
        ),
        metrics=MetricsContract(
            module="simulation/metrics.py",
            metrics_class="SimulationMetrics",
            method="deterministic_state",
            exempt=METRICS_WALL_CLOCK_EXEMPT,
        ),
    )
