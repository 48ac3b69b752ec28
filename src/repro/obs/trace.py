"""Hierarchical tracing in Trace Event Format (Perfetto / chrome://tracing).

The tracer emits ``"X"`` (complete) events — one per finished span, with
``ts``/``dur`` in microseconds on the shared ``perf_counter`` clock —
plus ``"i"`` instants and ``"C"`` counter samples.  :meth:`Tracer.write`
produces a JSON *array* file with one event per line: both Perfetto and
chrome://tracing load it directly, and the line-per-event layout keeps
it greppable and diffable like JSONL.

Span hierarchy is carried two ways at once:

* **visually** — nested spans on the same ``tid`` track are contained in
  their parent's ``[ts, ts+dur)`` window, which is how trace viewers
  draw flame-style nesting without explicit ids;
* **structurally** — every span's ``args`` records its ``id`` and its
  ``parent`` id, so :func:`build_span_tree` (the report CLI and the
  round-trip tests) reconstructs the exact tree without relying on
  timestamp containment.
"""

from __future__ import annotations

import json
import os
import time as _time
from typing import Dict, List, Sequence

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "parse_trace",
    "build_span_tree",
]


# Bound once: the span enter/exit path reads the clock twice per span,
# and a global-dict lookup per read is measurable at trace volume.
_perf_counter = _time.perf_counter


def _now_us() -> int:
    return int(_perf_counter() * 1_000_000)


class _Span:
    """Context manager for one live span; appends a compact record on exit.

    ``set(**kw)`` attaches arguments at any point — including *after*
    exit, because the args dict is shared with the stored record and the
    event that :attr:`Tracer.events` later materializes from it (the
    platform uses this to stamp the epoch class, which is only known
    once the planner outcome has been consumed).

    The exit path appends ``(name, cat, start, end, args)`` instead of a
    full event dict: spans are the trace's hot path (thousands per run,
    inside planning loops), and deferring the eight-key dict build plus
    the float→µs conversions to read time roughly halves the per-span
    cost the overhead benchmark charges against the run.
    """

    __slots__ = ("_tracer", "name", "cat", "span_id", "parent", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        span_id = tracer._next_id
        tracer._next_id = span_id + 1
        self.span_id = span_id
        self.parent = parent = tracer._stack[-1] if tracer._stack else None
        args["id"] = span_id
        args["parent"] = parent
        self.args = args
        self._start = 0.0

    def set(self, **kw: object) -> "_Span":
        self.args.update(kw)
        return self

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self.span_id)
        self._start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = _perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        tracer._records.append((self.name, self.cat, self._start, end, self.args))


class Tracer:
    """Per-run trace collector (single-threaded by design: the platform).

    Storage is a single ordered list mixing compact span records (tuples,
    appended by :class:`_Span`) with ready event dicts (instants and
    counter samples).  :attr:`events` materializes the
    Trace Event Format view on demand; the per-span args dicts are shared
    between records and materialized events, so post-exit ``set()`` on a
    span is visible in every later :attr:`events` read.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._records: List[object] = []
        self._stack: List[int] = []
        self._next_id = 1

    enabled = True

    @property
    def events(self) -> List[Dict[str, object]]:
        """The trace as Trace Event Format dicts (built on access)."""
        pid = self.pid
        out: List[Dict[str, object]] = []
        for record in self._records:
            if type(record) is dict:
                out.append(record)
                continue
            name, cat, start, end, args = record
            start_us = int(start * 1_000_000)
            out.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": start_us,
                    "dur": max(int(end * 1_000_000) - start_us, 0),
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
        return out

    # ------------------------------------------------------------------ #
    def span(self, name: str, cat: str = "span", **args: object) -> _Span:
        return _Span(self, name, cat, args)

    def instant(self, name: str, **args: object) -> None:
        self._records.append(
            {
                "name": name,
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": _now_us(),
                "pid": self.pid,
                "tid": self.pid,
                "args": dict(args),
            }
        )

    def counter(self, name: str, **values: float) -> None:
        """One ``"C"`` sample: viewers render these as stacked counter tracks."""
        self._records.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": _now_us(),
                "pid": self.pid,
                "args": dict(values),
            }
        )

    # ------------------------------------------------------------------ #
    def write(self, path: str) -> None:
        """Write the trace as a Perfetto-loadable JSON array."""
        events = self.events
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[\n")
            for i, event in enumerate(events):
                handle.write(json.dumps(event, sort_keys=True))
                handle.write(",\n" if i + 1 < len(events) else "\n")
            handle.write("]\n")


class NullTracer:
    """Disabled-path tracer: every operation is a constant-time no-op."""

    enabled = False
    events: List[Dict[str, object]] = []

    def span(self, name: str, cat: str = "span", **args: object) -> "_NullSpan":
        return _NULL_SPAN

    def instant(self, name: str, **args: object) -> None:
        pass

    def counter(self, name: str, **values: float) -> None:
        pass

    def write(self, path: str) -> None:
        raise RuntimeError("cannot write a trace from a disabled tracer")


class _NullSpan:
    __slots__ = ()

    def set(self, **kw: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------- #
# Parsing / tree reconstruction (report CLI and round-trip tests)
# ---------------------------------------------------------------------- #
def parse_trace(path: str) -> List[Dict[str, object]]:
    """Load a trace file written by :meth:`Tracer.write`."""
    with open(path, "r", encoding="utf-8") as handle:
        events = json.load(handle)
    if not isinstance(events, list):
        raise ValueError(f"{path}: expected a JSON array of trace events")
    return events


def _span_key(event: Dict[str, object]) -> tuple:
    """Span key: the span id, namespaced by track."""
    return (event.get("tid"), event["args"]["id"])


def build_span_tree(events: Sequence[Dict[str, object]]) -> Dict[tuple, Dict]:
    """Index complete-span events into ``key -> {event, children}``;
    a span's parent is the span with its ``parent`` id on the same track."""
    spans = [e for e in events if e.get("ph") == "X"]
    nodes: Dict[tuple, Dict] = {
        _span_key(e): {"event": e, "children": []} for e in spans
    }
    for event in spans:
        parent_id = event["args"].get("parent")
        if parent_id is None:
            continue
        parent = nodes.get((event.get("tid"), parent_id))
        if parent is not None:
            parent["children"].append(nodes[_span_key(event)])
    return nodes
