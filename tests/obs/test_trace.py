"""Trace round-trip: emit -> write -> parse -> span-tree invariants."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    build_span_tree,
    parse_trace,
)


def _spans(events):
    return [e for e in events if e.get("ph") == "X"]


class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            with tracer.span("plan"):
                with tracer.span("dispatch"):
                    pass
            with tracer.span("journal.append"):
                pass
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["epoch"]["args"]["parent"] is None
        assert by_name["plan"]["args"]["parent"] == by_name["epoch"]["args"]["id"]
        assert by_name["dispatch"]["args"]["parent"] == by_name["plan"]["args"]["id"]
        assert (
            by_name["journal.append"]["args"]["parent"]
            == by_name["epoch"]["args"]["id"]
        )

    def test_timestamps_monotone_and_nested(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("epoch"):
                with tracer.span("plan"):
                    pass
        spans = _spans(tracer.events)
        tree = build_span_tree(spans)
        # Children are contained in their parent's [ts, ts+dur] window.
        for node in tree.values():
            event = node["event"]
            for child in node["children"]:
                c = child["event"]
                assert c["ts"] >= event["ts"]
                assert c["ts"] + c["dur"] <= event["ts"] + event["dur"]
        # Sibling epochs are emitted in increasing start order.
        epochs = [e for e in spans if e["name"] == "epoch"]
        assert all(a["ts"] <= b["ts"] for a, b in zip(epochs, epochs[1:]))

    def test_set_after_exit_lands_in_event(self):
        tracer = Tracer()
        with tracer.span("plan") as span:
            pass
        span.set(cls="incremental")
        assert tracer.events[-1]["args"]["cls"] == "incremental"

    def test_write_parse_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("epoch", seq=0):
            tracer.instant("rung.transition", rung="partial")
            tracer.counter("roadnet.row_cache", hits=10.0, misses=1.0)
        path = os.fspath(tmp_path / "trace.json")
        tracer.write(path)
        events = parse_trace(path)
        assert events == tracer.events
        # One event per line keeps the file greppable.
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) == len(events) + 2

    def test_parse_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a trace"}))
        with pytest.raises(ValueError):
            parse_trace(os.fspath(path))


class TestNullTracer:
    def test_null_tracer_collects_nothing(self):
        with NULL_TRACER.span("anything", cost=1) as span:
            span.set(more=2)
        NULL_TRACER.instant("x")
        NULL_TRACER.counter("c", v=1.0)
        assert NULL_TRACER.events == []

    def test_null_tracer_refuses_to_write(self, tmp_path):
        with pytest.raises(RuntimeError):
            NullTracer().write(os.fspath(tmp_path / "never.json"))
