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
    PoolContract,
)

#: Packages whose outputs must be a pure function of the simulated input
#: stream: the bit-for-bit contracts (serial/parallel equivalence,
#: checkpoint resume, incremental-vs-full replay) all live here.
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
        "assignment/planner.py",
        "os.environ",
        "config entry point: REPRO_EXECUTOR resolution in "
        "PlannerConfig.__post_init__; an explicit config value always wins "
        "and the backend never changes planning output",
    ),
    AllowEntry(
        "assignment/executor.py",
        "time.perf_counter",
        "deadline checks plus search_s/wall_s/overhead_s executor stats — "
        "wall-clock observability excluded from deterministic outputs",
    ),
    AllowEntry(
        "assignment/executor.py",
        "os.environ",
        "config entry point: REPRO_MAX_WORKERS default resolution; "
        "explicit max_workers wins, pool size never changes output",
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
    "executor": (
        "dispatch backend moves wall-clock only; results are bit-for-bit "
        "identical across backends, and caches must survive a backend "
        "switch by design (see executor.py module docs)"
    ),
    "max_workers": (
        "pool sizing for the parallel backend; same bit-for-bit contract "
        "as 'executor'"
    ),
}

#: SimulationMetrics fields excluded from ``deterministic_state()``.
#: Every other field must be read inside that method — the bit-for-bit
#: checkpoint/recovery contract is exactly this partition.
METRICS_WALL_CLOCK_EXEMPT = {
    "parallel_components": (
        "backend-dependent by definition (0 under the serial executor); "
        "the bit-for-bit contract spans backends"
    ),
    "executor_overhead_s": (
        "wall-clock measurement (pickling/IPC/scheduling cost), like the "
        "per-epoch entries of cpu_times"
    ),
    "latency_by_class": (
        "streaming histograms over the same wall-clock measurements as "
        "cpu_times (replan latency per epoch class); only sample counts "
        "could ever agree across runs, and those are already covered by "
        "num_cpu_samples / degradation_rungs"
    ),
}

#: "<path_suffix>:<global>" -> reason a module-global read on the pool
#: path is safe (immutable in practice, or identical in every worker).
POOL_ALLOWED_GLOBALS: dict = {}

#: Modules reached by the pool-boundary walk whose closure/handle/global
#: checks are skipped wholesale, with the reason on record.
POOL_EXEMPT_MODULES = {
    "nn/tensor.py": (
        "autograd tape closures are constructed and consumed within one "
        "process during TVF inference/training; nothing closure-shaped "
        "ever crosses the pool — the TVF ships as numpy weight arrays, "
        "verified end-to-end by the guided-TVF parallel equivalence suite "
        "(tests/assignment/test_parallel_search.py)"
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
        pool=PoolContract(
            entry_module="assignment/executor.py",
            entry_function="run_component_job",
            boundary_classes=("ComponentJob", "ComponentResult"),
            allowed_globals=POOL_ALLOWED_GLOBALS,
            exempt_modules=POOL_EXEMPT_MODULES,
        ),
    )
