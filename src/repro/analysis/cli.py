"""Command-line front end: ``python -m repro.analysis``.

Exit codes: 0 — clean (suppressed/baselined findings are fine); 1 — new
findings or stale baseline entries; 2 — usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.engine import Report, run_analysis
from repro.analysis.registry import default_config
from repro.analysis.rules import build_rules

DEFAULT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "analysis_baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Contract-enforcing static analysis for the repro codebase: "
            "determinism, set-iteration order, cache-key completeness."
        ),
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help=(
            "files/directories to analyze (default: src/repro).  Partial "
            "runs disable the stale-registry and stale-baseline checks, "
            "which only make sense over the full tree."
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (relpaths and default paths resolve here)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the active rules and exit",
    )
    return parser


def _render_text(report: Report, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    for entry in report.stale_baseline:
        print(
            f"{entry.get('path')}: [stale-baseline] baseline entry for "
            f"[{entry.get('rule')}] `{entry.get('symbol')}` no longer fires "
            "— remove it from the baseline",
            file=out,
        )
    print(
        f"analysis: {report.modules_analyzed} modules, "
        f"{len(report.rules_run)} rules ({', '.join(report.rules_run)}); "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined, "
        f"{len(report.stale_baseline)} stale baseline entr(ies)",
        file=out,
    )


def _render_json(report: Report, out) -> None:
    def as_dict(finding):
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "message": finding.message,
            "symbol": finding.symbol,
        }

    json.dump(
        {
            "findings": [as_dict(f) for f in report.findings],
            "suppressed": [as_dict(f) for f in report.suppressed],
            "baselined": [as_dict(f) for f in report.baselined],
            "stale_baseline": report.stale_baseline,
            "modules_analyzed": report.modules_analyzed,
            "rules": report.rules_run,
            "clean": report.clean,
        },
        out,
        indent=2,
    )
    out.write("\n")


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    config = default_config()

    if args.list_rules:
        for rule in build_rules(config):
            print(f"{rule.rule_id}: {rule.description}", file=out)
        return 0

    partial = args.paths is not None
    if partial:
        # Absence of a registry/baseline match proves nothing on a
        # partial tree; keep those checks for full-tree runs only.
        config = dataclasses.replace(config, check_stale_registry=False)
    paths: List[Path] = [Path(p) for p in (args.paths or DEFAULT_PATHS)]

    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    )
    try:
        baseline = Baseline.load(baseline_path)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_analysis(paths, config, root=root, baseline=baseline)
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(
            f"wrote {len(report.findings)} entr(ies) to {baseline_path}",
            file=out,
        )
        return 0

    if partial:
        report.stale_baseline = []

    if args.format == "json":
        _render_json(report, out)
    else:
        _render_text(report, out)
    return report.exit_code
