"""Render a per-phase run report from a trace file.

Usage::

    python -m repro.obs.report trace.json

The report is computed purely from the Trace Event Format file that
:meth:`repro.obs.Tracer.write` produced — no live run required — and
shows where the run's time went (per-phase inclusive totals and exclusive
``self_ms``: a span's duration minus what its children cover), the
replan-latency distribution per epoch class (full / incremental /
degraded), the worker-refresh account and the final cache counter
samples.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import StreamingHistogram
from repro.obs.trace import build_span_tree, parse_trace

__all__ = ["REFRESH_ACCOUNT", "main", "phase_totals", "refresh_account", "render_report"]

#: Worker counters every ``refresh`` span carries: refreshed, served from
#: cache, and arrival-ball hits the exact arrival test spared a refresh.
REFRESH_ACCOUNT = ("recomputed", "reused", "skipped")


def _fmt_ms(value: float) -> str:
    return f"{value:,.2f}"


def _table(rows: List[Sequence[str]], header: Sequence[str]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def phase_totals(events: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, inclusive ``total_ms`` and exclusive
    ``self_ms`` (each span's duration minus its children's, via the parent
    links), so a phase's ``self_ms`` plus its children's totals is its
    ``total_ms``."""
    phases: Dict[str, Dict[str, float]] = {}
    for node in build_span_tree(events).values():
        event = node["event"]
        entry = phases.setdefault(
            str(event["name"]), {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        duration = float(event["dur"])
        covered = sum(float(child["event"]["dur"]) for child in node["children"])
        entry["count"] += 1
        entry["total_ms"] += duration / 1000.0
        entry["self_ms"] += (duration - covered) / 1000.0
    return phases


def refresh_account(events: Sequence[Dict[str, object]]) -> Optional[str]:
    """:data:`REFRESH_ACCOUNT` totalled over every ``refresh`` span, as one
    line; ``None`` when the trace has no ``refresh`` span."""
    spans = [
        e.get("args", {}) for e in events if e.get("ph") == "X" and e["name"] == "refresh"
    ]
    if not spans:
        return None
    counts = " ".join(f"{k}={sum(int(a.get(k, 0)) for a in spans)}" for k in REFRESH_ACCOUNT)
    return f"Refresh account: {counts} over {len(spans)} refresh spans"


def render_report(events: List[Dict[str, object]]) -> str:
    """Build the plain-text report for a parsed event list."""
    spans = [e for e in events if e.get("ph") == "X"]
    out: List[str] = []

    # ---- per-phase totals ------------------------------------------------ #
    out.append("Per-phase totals")
    rows = [
        (
            name,
            str(int(entry["count"])),
            _fmt_ms(entry["total_ms"]),
            _fmt_ms(entry["self_ms"]),
            _fmt_ms(entry["total_ms"] / entry["count"]),
        )
        for name, entry in sorted(
            phase_totals(events).items(), key=lambda item: -item[1]["total_ms"]
        )
    ]
    out.extend(_table(rows, ("phase", "count", "total_ms", "self_ms", "mean_ms")))
    account = refresh_account(events)
    if account is not None:
        out.extend(["", account])

    # ---- replan latency per epoch class ---------------------------------- #
    by_class: Dict[str, StreamingHistogram] = {}
    for event in spans:
        if event["name"] != "plan":
            continue
        cls = str(event.get("args", {}).get("cls", "full"))
        by_class.setdefault(cls, StreamingHistogram()).record(
            float(event["dur"]) / 1_000_000.0
        )
    if by_class:
        out.append("")
        out.append("Replan latency by epoch class (ms)")
        rows = []
        for cls in sorted(by_class):
            summary = by_class[cls].summary(scale=1000.0)
            rows.append(
                (
                    cls,
                    str(int(summary["count"])),
                    _fmt_ms(summary["p50"]),
                    _fmt_ms(summary["p95"]),
                    _fmt_ms(summary["p99"]),
                    _fmt_ms(summary["max"]),
                )
            )
        out.extend(_table(rows, ("class", "count", "p50", "p95", "p99", "max")))

    # ---- final counter samples ------------------------------------------- #
    counters: Dict[str, Dict[str, object]] = {}
    for event in events:
        if event.get("ph") == "C":
            counters[str(event["name"])] = dict(event.get("args", {}))
    if counters:
        out.append("")
        out.append("Counters (last sample)")
        rows = [
            (
                name,
                ", ".join(f"{k}={v}" for k, v in sorted(counters[name].items())),
            )
            for name in sorted(counters)
        ]
        out.extend(_table(rows, ("counter", "values")))

    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a per-phase run report from a Trace Event Format file.",
    )
    parser.add_argument("trace", help="trace file written by repro.obs (JSON array)")
    args = parser.parse_args(argv)
    try:
        events = parse_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not any(e.get("ph") == "X" for e in events):
        print(f"error: {args.trace}: no complete spans in trace", file=sys.stderr)
        return 1
    print(render_report(events))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
