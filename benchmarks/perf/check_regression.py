#!/usr/bin/env python
"""Compare a fresh BENCH_planning.json against the committed baseline.

Usage::

    python benchmarks/perf/check_regression.py [BASELINE [CANDIDATE]] [--factor 2.0]

``BASELINE`` defaults to the committed ``BENCH_planning.json`` at the
repository root, ``CANDIDATE`` to the file the perf suite just wrote,
``benchmarks/out/BENCH_planning.json`` (git-ignored).  The baseline only
changes by an explicit copy of a fresh file over it (see CONTRIBUTING).

Fails (exit 1) when the candidate regresses by more than ``factor`` on any
guarded metric.  The guarded metrics are **same-run ratios** — both legs
run on the same machine in the same session, so the ratio is
machine-invariant and safe to compare across a dev laptop and a CI
runner — or deterministic counts, identical on every host:

* incremental-replan speedup: single-event stream (per scale) and
  streaming-platform mean replan latency (per scale),
* road-network planning: the Euclidean/roadnet same-snapshot efficiency
  ratio and the roadnet incremental-replan speedup (the Dijkstra row
  cache is gated in-test on exact row counts, not here),
* time-dependent (rush-hour) planning: the incremental-replan speedup on
  boundary-crossing streams over the time-dependent Euclidean wrapper
  and over the per-edge-class road-network backend,
* fault-tolerance overhead: deterministic counts of the work a resilient
  platform replay adds (self-check sweeps and items per plan call,
  journal entries and bytes per epoch, checkpoints and their bytes,
  validated events per event), gated as a **ceiling** — the candidate
  may not exceed the baseline.  The same-run wall-clock
  ``overhead_ratio`` is printed as info only (it read +4.4 to +4.7 %
  on a shared 2-vCPU host and failed its old absolute 1.05 bound 3 of
  5 times on unchanged code),
* observability overhead: trace events and registry ops per plan call
  of a fully traced platform replay, gated as a **ceiling** — the
  candidate may not exceed the baseline.  Both are deterministic counts
  (machine-invariant), so the ceiling is exact; the same-run wall-clock
  ``overhead_ratio`` is printed as info only (every cheaper replan
  raises it, and it spread across 1.05 run to run on identical code),
* search node counts: ``bnb_search.*.bnb_nodes`` / ``.bnb_mean_nodes``,
  gated as a **ceiling** too.  They are integer search statistics over
  identical inputs, reproduced exactly on every host, so a kernel change
  that expands more nodes fails here; the latencies beside them are too
  noisy to tell.

Some families are gated at an absolute **floor** instead (``FLOORS``
maps metric-name prefixes to their thresholds):

* ``per_leg_pricing.boundary_stream.*.served_ratio`` — tasks served with
  per-leg departure pricing over tasks served with frozen-at-departure
  pricing on the boundary-crossing platform stream.  Integer simulation
  outcomes, gated at ``PER_LEG_SERVED_FLOOR`` (1.0: pricing what
  execution pays must never serve fewer tasks; the committed value is
  1.5).
* ``replan_alloc.*.alloc_reduction`` — the full pipeline's per-event
  tracemalloc allocation ceiling over the incremental engine's, same
  run and same snapshots, gated at ``ALLOC_REDUCTION_FLOOR`` (the
  dirty-region engine must allocate at most half of a full replan).

Absolute wall-clock numbers (latencies, events/sec) are printed for
context but never fail the check — they are not comparable across
machines.  A ratio fails when ``candidate < baseline / factor``; a
ceiling fails when ``candidate > baseline``; a floor fails when the candidate is below its
``FLOORS`` threshold.  Floor metrics are driven by the candidate, not the
baseline, so a floor cannot be disabled by the baseline file.  Missing
sections are skipped with a note so partial baselines stay usable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: Absolute floor for per-leg pricing: never serve fewer tasks than the
#: frozen-at-departure approximation on the boundary stream.
PER_LEG_SERVED_FLOOR = 1.0

#: Absolute floor for the allocation benchmark: a dirty-stream replan on
#: the incremental engine allocates at most half of a full replan.
ALLOC_REDUCTION_FLOOR = 2.0

#: 'floor'-kind metrics gate at the threshold mapped from their metric
#: name's leading section.
FLOORS = {
    "per_leg_pricing.": PER_LEG_SERVED_FLOOR,
    "replan_alloc.": ALLOC_REDUCTION_FLOOR,
}


def _floor_for(name):
    for prefix, floor in FLOORS.items():
        if name.startswith(prefix):
            return floor
    raise KeyError(f"no absolute floor registered for metric {name!r}")


def _iter_metrics(data):
    """Yield (name, value, kind).

    Kinds: ``ratio`` gates against the baseline (fails when the candidate
    drops below ``baseline / factor``); ``ceiling`` gates a deterministic count
    against the baseline (fails when the candidate exceeds it);
    ``floor`` gates against the absolute threshold :data:`FLOORS` maps
    its name to and is driven by the *candidate*; ``info`` never gates.
    """
    for scale, entry in data.get("streaming", {}).items():
        yield f"streaming.{scale}.events_per_sec", entry["events_per_sec"], "info"
    incremental = data.get("incremental_replan", {})
    for scale, entry in incremental.get("single_event_stream", {}).items():
        yield (
            f"incremental_replan.single_event_stream.{scale}.speedup",
            entry["speedup"],
            "ratio",
        )
        yield (
            f"incremental_replan.single_event_stream.{scale}.incremental_mean_ms",
            entry["incremental_mean_ms"],
            "info",
        )
    for scale, entry in incremental.get("streaming_platform", {}).items():
        yield (
            f"incremental_replan.streaming_platform.{scale}.speedup",
            entry["speedup"],
            "ratio",
        )
        yield (
            f"incremental_replan.streaming_platform.{scale}.incremental_mean_replan_ms",
            entry["incremental_mean_replan_ms"],
            "info",
        )
    bnb = data.get("bnb_search", {})
    for family in ("component_search", "dirty_component_stream"):
        for scale, entry in bnb.get(family, {}).items():
            for count in ("bnb_nodes", "bnb_mean_nodes"):
                if count in entry:
                    yield f"bnb_search.{family}.{scale}.{count}", entry[count], "ceiling"
    roadnet = data.get("roadnet_planning", {})
    for scale, entry in roadnet.get("snapshot", {}).items():
        yield f"roadnet_planning.snapshot.{scale}.efficiency", entry["efficiency"], "ratio"
        yield f"roadnet_planning.snapshot.{scale}.roadnet_mean_ms", entry["roadnet_mean_ms"], "info"
    for scale, entry in roadnet.get("incremental_stream", {}).items():
        yield f"roadnet_planning.incremental_stream.{scale}.speedup", entry["speedup"], "ratio"
        yield (
            f"roadnet_planning.incremental_stream.{scale}.incremental_mean_ms",
            entry["incremental_mean_ms"],
            "info",
        )
    for scale, entry in roadnet.get("dijkstra_cache", {}).items():
        yield f"roadnet_planning.dijkstra_cache.{scale}.unique_rows", entry["unique_rows"], "info"
    timedep = data.get("timedep_planning", {})
    for family in ("incremental_stream", "rushhour_roadnet_stream"):
        for scale, entry in timedep.get(family, {}).items():
            yield f"timedep_planning.{family}.{scale}.speedup", entry["speedup"], "ratio"
            yield (
                f"timedep_planning.{family}.{scale}.incremental_mean_ms",
                entry["incremental_mean_ms"],
                "info",
            )
    per_leg = data.get("per_leg_pricing", {})
    for scale, entry in per_leg.get("boundary_stream", {}).items():
        yield (
            f"per_leg_pricing.boundary_stream.{scale}.served_ratio",
            entry["served_ratio"],
            "floor",
        )
        yield (
            f"per_leg_pricing.boundary_stream.{scale}.per_leg_served",
            entry["per_leg_served"],
            "info",
        )
    for scale, entry in per_leg.get("uniform_overhead", {}).items():
        # Two timed runs of bit-identical work: machine noise only, never
        # gated (the bit-for-bit assertion lives in the benchmark itself).
        yield (
            f"per_leg_pricing.uniform_overhead.{scale}.overhead_ratio",
            entry["overhead_ratio"],
            "info",
        )
    for scale, entry in data.get("replan_alloc", {}).get("single_event_stream", {}).items():
        yield (
            f"replan_alloc.single_event_stream.{scale}.alloc_reduction",
            entry["alloc_reduction"],
            "floor",
        )
        yield (
            f"replan_alloc.single_event_stream.{scale}.incremental_peak_kb",
            entry["incremental_peak_kb"],
            "info",
        )
    for scale, entry in data.get("degradation_overhead", {}).items():
        for count in (
            "selfcheck_calls_per_plan",
            "selfcheck_items_per_plan",
            "journal_entries_per_epoch",
            "journal_bytes_per_epoch",
            "checkpoints",
            "checkpoint_bytes",
            "validated_per_event",
        ):
            if count in entry:
                yield f"degradation_overhead.{scale}.{count}", entry[count], "ceiling"
        yield (
            f"degradation_overhead.{scale}.overhead_ratio",
            entry["overhead_ratio"],
            "info",
        )
        yield (
            f"degradation_overhead.{scale}.resilient_ms",
            entry["resilient_ms"],
            "info",
        )
    for scale, entry in data.get("observability_overhead", {}).items():
        for count in ("events_per_plan", "ops_per_plan"):
            if count in entry:
                yield f"observability_overhead.{scale}.{count}", entry[count], "ceiling"
        yield (
            f"observability_overhead.{scale}.overhead_ratio",
            entry["overhead_ratio"],
            "info",
        )
        yield (
            f"observability_overhead.{scale}.traced_ms",
            entry["traced_ms"],
            "info",
        )


def compare(baseline: dict, candidate: dict, factor: float):
    """Return (failures, report_rows) for candidate vs baseline."""
    candidate_metrics = {
        name: (value, kind) for name, value, kind in _iter_metrics(candidate)
    }
    baseline_values = {name: value for name, value, _ in _iter_metrics(baseline)}
    failures = []
    rows = []
    for name, base_value, kind in _iter_metrics(baseline):
        if name not in candidate_metrics:
            rows.append((name, base_value, None, "missing in candidate (skipped)"))
            continue
        cand_value, cand_kind = candidate_metrics[name]
        if cand_kind == "floor":
            # Floor metrics are candidate-driven (handled below, even when
            # absent from the baseline): the baseline cannot disarm them.
            continue
        if kind == "info" or cand_kind == "info":
            rows.append((name, base_value, cand_value, "info (not gated)"))
            continue
        if kind == "ceiling":
            regressed = cand_value > base_value
            status = "FAIL" if regressed else "ok"
            rows.append((name, base_value, cand_value, f"{status} (ceiling)"))
            if regressed:
                failures.append(name)
            continue
        regressed = cand_value < base_value / factor
        ratio = base_value / cand_value if cand_value else float("inf")
        status = "FAIL" if regressed else "ok"
        rows.append((name, base_value, cand_value, f"{status} (x{ratio:.2f})"))
        if regressed:
            failures.append(name)
    for name, (cand_value, kind) in candidate_metrics.items():
        if kind != "floor":
            continue
        floor = _floor_for(name)
        regressed = cand_value < floor
        status = "FAIL" if regressed else "ok"
        rows.append(
            (
                name,
                baseline_values.get(name),
                cand_value,
                f"{status} (floor {floor})",
            )
        )
        if regressed:
            failures.append(name)
    return failures, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    repo_root = Path(__file__).resolve().parents[2]
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=repo_root / "BENCH_planning.json"
    )
    parser.add_argument(
        "candidate",
        type=Path,
        nargs="?",
        default=repo_root / "benchmarks" / "out" / "BENCH_planning.json",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated regression ratio (default: 2.0)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    failures, rows = compare(baseline, candidate, args.factor)

    width = max(len(name) for name, *_ in rows) if rows else 20
    print(f"{'metric'.ljust(width)}  baseline      candidate     verdict")
    for name, base_value, cand_value, verdict in rows:
        cand_text = "-" if cand_value is None else f"{cand_value:<12}"
        print(f"{name.ljust(width)}  {str(base_value):<12}  {cand_text}  {verdict}")

    if failures:
        print(
            f"\n{len(failures)} metric(s) regressed more than {args.factor}x:",
            ", ".join(failures),
        )
        return 1
    print(f"\nno metric regressed more than {args.factor}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
