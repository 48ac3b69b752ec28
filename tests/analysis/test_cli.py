"""CLI behaviour: exit codes, formats, baseline workflow, partial runs."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = str(Path(__file__).resolve().parents[2])

#: A determinism violation placed so the *live* registry's deterministic
#: globs (``*repro/assignment/*``) match it under a scratch root.
BAD_SOURCE = "import time\n\n\ndef stamp():\n    return time.time()\n"


def scratch_tree(tmp_path: Path) -> Path:
    target = tmp_path / "repro" / "assignment"
    target.mkdir(parents=True)
    (target / "bad.py").write_text(BAD_SOURCE)
    return target / "bad.py"


def test_full_tree_run_is_clean_and_exits_zero():
    out = io.StringIO()
    assert main(["--root", REPO_ROOT], out=out) == 0
    assert "0 finding(s)" in out.getvalue()


def test_full_tree_json_reports_all_four_rules():
    out = io.StringIO()
    assert main(["--root", REPO_ROOT, "--format", "json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["clean"] is True
    assert set(payload["rules"]) == {
        "determinism",
        "ordered-iteration",
        "cache-key",
        "metrics-partition",
    }


def test_list_rules(capsys):
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    listing = out.getvalue()
    assert "determinism:" in listing and "cache-key:" in listing


def test_partial_run_flags_violations_and_exits_one(tmp_path):
    bad = scratch_tree(tmp_path)
    out = io.StringIO()
    code = main(
        ["--root", str(tmp_path), "--paths", str(bad), "--format", "json"], out=out
    )
    assert code == 1
    payload = json.loads(out.getvalue())
    assert any(f["symbol"] == "time.time" for f in payload["findings"])
    # Partial runs must not report stale registry/baseline entries: the
    # live allowlist legitimately matches nothing in a one-file tree.
    assert payload["stale_baseline"] == []
    assert not any(f["rule"] == "stale-registry" for f in payload["findings"])


def test_write_baseline_then_rerun_clean(tmp_path):
    bad = scratch_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    args = ["--root", str(tmp_path), "--paths", str(bad), "--baseline", str(baseline)]
    assert main(args + ["--write-baseline"], out=io.StringIO()) == 0
    entries = json.loads(baseline.read_text())["entries"]
    assert len(entries) == 1 and entries[0]["symbol"] == "time.time"
    assert main(args, out=io.StringIO()) == 0  # grandfathered now


def test_fixed_code_makes_baseline_stale_on_full_runs(tmp_path):
    bad = scratch_tree(tmp_path)
    baseline = tmp_path / "analysis_baseline.json"
    assert (
        main(
            ["--root", str(tmp_path), "--paths", str(bad), "--baseline", str(baseline),
             "--write-baseline"],
            out=io.StringIO(),
        )
        == 0
    )
    bad.write_text("def stamp():\n    return 0.0\n")
    # Default (full-tree) run under the scratch root: the stale baseline
    # entry must fail the run so the file shrinks alongside the fix.
    # stale-registry findings for the live allowlist are expected here
    # (the scratch tree contains none of the allowlisted sites), so count
    # only the stale-baseline side.
    out = io.StringIO()
    code = main(["--root", str(tmp_path), "--format", "json"], out=out)
    payload = json.loads(out.getvalue())
    assert code == 1
    assert len(payload["stale_baseline"]) == 1


def test_corrupt_baseline_is_a_usage_error(tmp_path):
    bad = scratch_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 99, "entries": []}')
    code = main(
        ["--root", str(tmp_path), "--paths", str(bad), "--baseline", str(baseline)],
        out=io.StringIO(),
    )
    assert code == 2


def test_unparsable_source_is_a_usage_error(tmp_path):
    target = tmp_path / "repro" / "assignment"
    target.mkdir(parents=True)
    (target / "broken.py").write_text("def broken(:\n")
    code = main(
        ["--root", str(tmp_path), "--paths", str(target / "broken.py")],
        out=io.StringIO(),
    )
    assert code == 2
