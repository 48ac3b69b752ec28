"""The ``python -m repro.obs.report`` CLI on real and broken traces."""

from __future__ import annotations

import os

import pytest

from repro.obs.report import main, phase_totals, refresh_account, render_report
from repro.obs.trace import Tracer


def _write_sample_trace(path: str) -> Tracer:
    tracer = Tracer()
    with tracer.span("epoch", seq=0):
        with tracer.span("plan") as plan:
            with tracer.span("dispatch"):
                pass
        plan.set(cls="full")
        with tracer.span("journal.append"):
            pass
    with tracer.span("epoch", seq=1):
        with tracer.span("plan") as plan:
            pass
        plan.set(cls="incremental")
    tracer.counter("roadnet.row_cache", hits=99.0, misses=1.0)
    tracer.write(path)
    return tracer


class TestRenderReport:
    def test_sections_and_class_split(self, tmp_path):
        path = os.fspath(tmp_path / "trace.json")
        tracer = _write_sample_trace(path)
        text = render_report(tracer.events)
        assert "Per-phase totals" in text
        assert "Replan latency by epoch class (ms)" in text
        assert "Counters (last sample)" in text
        lines = text.splitlines()
        class_rows = {
            line.split()[0]
            for line in lines[lines.index("Replan latency by epoch class (ms)") + 3 :]
            if line and not line.startswith(("Pool", "Counters"))
        }
        assert {"full", "incremental"} <= class_rows

    def test_self_time_plus_children_is_total(self, tmp_path):
        tracer = _write_sample_trace(os.fspath(tmp_path / "trace.json"))
        phases = phase_totals(tracer.events)
        # epoch > {plan > dispatch, journal.append}: every parent's
        # exclusive time plus its children's totals is its own total.
        assert phases["plan"]["self_ms"] + phases["dispatch"]["total_ms"] == (
            pytest.approx(phases["plan"]["total_ms"])
        )
        assert (
            phases["epoch"]["self_ms"]
            + phases["plan"]["total_ms"]
            + phases["journal.append"]["total_ms"]
        ) == pytest.approx(phases["epoch"]["total_ms"])
        assert phases["dispatch"]["self_ms"] == phases["dispatch"]["total_ms"]
        header = render_report(tracer.events).splitlines()[1].split()
        assert header == ["phase", "count", "total_ms", "self_ms", "mean_ms"]

    def test_refresh_account_line(self):
        tracer = Tracer()
        with tracer.span("plan"):
            with tracer.span("refresh") as refresh:
                pass
            refresh.set(reused=4, recomputed=3, skipped=2, rows=0, tasks=9)
        with tracer.span("plan"):
            with tracer.span("refresh") as refresh:
                pass
            refresh.set(reused=3, recomputed=2, skipped=0, rows=2, tasks=9)
        line = "Refresh account: recomputed=5 reused=7 skipped=2 over 2 refresh spans"
        assert refresh_account(tracer.events) == line
        assert line in render_report(tracer.events).splitlines()

    def test_no_refresh_account_without_refresh_spans(self, tmp_path):
        tracer = _write_sample_trace(os.fspath(tmp_path / "trace.json"))
        assert refresh_account(tracer.events) is None
        assert "Refresh account" not in render_report(tracer.events)


class TestCli:
    def test_renders_trace(self, tmp_path, capsys):
        path = os.fspath(tmp_path / "trace.json")
        _write_sample_trace(path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "Per-phase totals" in out
        assert "incremental" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([os.fspath(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_without_spans_exits_1(self, tmp_path, capsys):
        path = os.fspath(tmp_path / "empty.json")
        tracer = Tracer()
        tracer.instant("only.instants")
        tracer.write(path)
        assert main([path]) == 1
        assert "no complete spans" in capsys.readouterr().err
