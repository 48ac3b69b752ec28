"""The analyzer's own gate, as a test: the live tree stays clean.

This is the same check CI runs via ``python -m repro.analysis`` — kept in
the suite so a violation fails fast locally, with the offending finding
in the assertion message.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, default_config, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_live_tree_analyzes_clean():
    baseline = Baseline.load(REPO_ROOT / "analysis_baseline.json")
    report = run_analysis(
        [REPO_ROOT / "src" / "repro"],
        default_config(),
        root=REPO_ROOT,
        baseline=baseline,
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"static-analysis findings:\n{rendered}"
    assert report.stale_baseline == []


def test_all_four_rules_are_active():
    report = run_analysis(
        [REPO_ROOT / "src" / "repro"], default_config(), root=REPO_ROOT
    )
    assert len(report.rules_run) >= 4
    assert report.modules_analyzed > 50


def test_every_registry_entry_carries_a_reason():
    config = default_config()
    for entry in config.determinism_allowlist:
        assert entry.reason.strip()
    assert config.cache_key is not None and config.metrics is not None
    for registry in (config.cache_key.exempt, config.metrics.exempt):
        for reason in registry.values():
            assert reason.strip()
