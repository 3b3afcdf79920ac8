"""The phase profiler: span timings, exportable three ways.

- :func:`chrome_trace` — a Chrome-trace / Perfetto JSON object
  (``chrome://tracing``, https://ui.perfetto.dev);
- :func:`to_jsonl` — one JSON record per event, lossless;
- :func:`summary` — a human table of *exclusive* per-phase time (a nested
  span's duration is charged to itself, not its parent), plus the stepper
  and coach headlines.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.observe.events import SPAN, TRACE_SCHEMA, TraceEvent
from repro.observe.recorder import Tracer


def spans(tracer: Tracer) -> list[TraceEvent]:
    return [e for e in tracer.events if e.kind == SPAN]


def phase_totals(tracer: Tracer) -> dict[str, float]:
    """Exclusive seconds per category.

    Spans nest within each thread, so a span's *exclusive* time is its
    duration minus the durations of the spans its thread opened directly
    inside it. Summing exclusive times per category gives a table whose
    total equals traced wall-clock per thread, with no double counting of
    e.g. ``typecheck`` inside ``expand`` inside ``compile``.
    """
    by_thread: dict[int, list[TraceEvent]] = {}
    for event in spans(tracer):
        by_thread.setdefault(event.tid, []).append(event)
    totals: dict[str, float] = {}
    for events in by_thread.values():
        events.sort(key=lambda e: (e.ts, -e.dur))
        # (end_ts, category, exclusive) stack of open ancestors
        stack: list[list[Any]] = []
        for event in events:
            while stack and stack[-1][0] <= event.ts + 1e-12:
                end, cat, exclusive = stack.pop()
                totals[cat] = totals.get(cat, 0.0) + max(exclusive, 0.0)
            if stack:
                stack[-1][2] -= event.dur  # charge the child to itself
            stack.append([event.ts + event.dur, event.category, event.dur])
        while stack:
            end, cat, exclusive = stack.pop()
            totals[cat] = totals.get(cat, 0.0) + max(exclusive, 0.0)
    return totals


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The whole trace as a Chrome-trace JSON object (see DESIGN.md §7)."""
    return {
        "traceEvents": [e.to_chrome() for e in tracer.events],
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro trace",
            "schema": TRACE_SCHEMA,
            "dropped_events": tracer.dropped,
        },
    }


def to_jsonl(tracer: Tracer) -> str:
    """One JSON record per event (lossless; streams into jq/pandas)."""
    return "\n".join(json.dumps(e.to_json()) for e in tracer.events)


_PHASE_ORDER = (
    "read", "compile", "expand", "parse", "typecheck", "optimize",
    "cache", "closure-compile", "pyc-codegen", "pyc-link", "run",
    "instantiate",
)


def summary(tracer: Tracer, *, top_macros: int = 10) -> str:
    """The human report: phase table, top macros, coach headlines."""
    from repro.observe.coach import coach_report
    from repro.observe.stepper import steps_by_macro

    totals = phase_totals(tracer)
    grand = sum(totals.values())
    lines = ["per-phase timings (exclusive):"]
    ordered = [c for c in _PHASE_ORDER if c in totals] + sorted(
        c for c in totals if c not in _PHASE_ORDER
    )
    for category in ordered:
        seconds = totals[category]
        share = (seconds / grand * 100.0) if grand else 0.0
        lines.append(f"  {category:<16} {seconds * 1000:>10.3f} ms {share:>6.1f}%")
    lines.append(f"  {'total traced':<16} {grand * 1000:>10.3f} ms")

    by_macro = steps_by_macro(tracer)
    if by_macro:
        total_steps = sum(by_macro.values())
        lines.append(f"\nexpansion steps by macro ({total_steps} total):")
        ranked = sorted(by_macro.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, count in ranked[:top_macros]:
            lines.append(f"  {name:<24} {count:>8}")
        if len(ranked) > top_macros:
            lines.append(f"  ... ({len(ranked) - top_macros} more macros)")

    lines.append("")
    lines.append(coach_report(tracer))
    if tracer.dropped:
        lines.append(f"\n(warning: {tracer.dropped} events dropped at the "
                     f"{tracer.max_events}-event cap)")
    return "\n".join(lines)


def export(tracer: Tracer, fmt: str = "summary") -> str:
    """Render the trace in one of the CLI's formats."""
    if fmt == "chrome":
        return json.dumps(chrome_trace(tracer), indent=2)
    if fmt == "jsonl":
        return to_jsonl(tracer)
    if fmt == "summary":
        return summary(tracer)
    raise ValueError(f"unknown trace format: {fmt!r} (chrome|summary|jsonl)")


def validate_chrome_trace(data: Any) -> list[str]:
    """Check a parsed Chrome-trace export against the documented schema.

    Returns a list of problems (empty = valid). Used by CI and the tests,
    so the schema DESIGN.md documents is the schema we actually emit.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["top level is not an object"]
    if data.get("otherData", {}).get("schema") != TRACE_SCHEMA:
        problems.append(f"otherData.schema != {TRACE_SCHEMA!r}")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        return problems + ["traceEvents missing or empty"]
    for i, entry in enumerate(events):
        missing = {"name", "cat", "ph", "ts", "pid", "tid"} - set(entry)
        if missing:
            problems.append(f"event {i}: missing keys {sorted(missing)}")
            continue
        if entry["ph"] not in ("X", "i"):
            problems.append(f"event {i}: bad ph {entry['ph']!r}")
        if entry["ph"] == "X" and "dur" not in entry:
            problems.append(f"event {i}: span without dur")
        if not isinstance(entry["ts"], (int, float)):
            problems.append(f"event {i}: non-numeric ts")
    return problems
