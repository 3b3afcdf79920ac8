"""Observability: structured tracing threaded through the whole pipeline.

One event bus (:class:`Tracer`), three clients:

- the **macro stepper** (:mod:`repro.observe.stepper`) — every transformer
  application, with srcloc, nesting depth, introduced scope, and (in full
  mode) rendered input/output syntax;
- the **optimization coach** (:mod:`repro.observe.coach`) — every
  type-driven specialization that fired and every near-miss with the reason
  it failed, keyed by srcloc;
- the **phase profiler** (:mod:`repro.observe.profiler`) — span timings for
  read/expand/typecheck/optimize/closure-compile/cache/run, exportable as a
  Chrome-trace JSON, JSONL, or a human summary.

Enable per Runtime (``Runtime(trace=True)`` or ``trace="full"``), from the
CLI (``repro trace file.rkt``, ``repro run --log-optimizations file.rkt``),
or in the REPL (``,trace`` / ``,stats``). Disabled, every instrumentation
point is a single guarded attribute read (see DESIGN.md §7 for the measured
overhead budget).
"""

from repro.observe.events import CATEGORIES, INSTANT, SPAN, TRACE_SCHEMA, TraceEvent
from repro.observe.recorder import (
    NULL_RECORDER,
    Recorder,
    Tracer,
    current_recorder,
    resolve_trace,
    use_recorder,
)
from repro.observe.coach import coach_report, fired, near_misses
from repro.observe.profiler import (
    chrome_trace,
    export,
    phase_totals,
    summary,
    to_jsonl,
    validate_chrome_trace,
)
from repro.observe.stepper import macro_steps, stepper_report, steps_by_macro

__all__ = [
    "CATEGORIES",
    "INSTANT",
    "SPAN",
    "TRACE_SCHEMA",
    "TraceEvent",
    "Recorder",
    "Tracer",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "resolve_trace",
    "macro_steps",
    "steps_by_macro",
    "stepper_report",
    "coach_report",
    "fired",
    "near_misses",
    "phase_totals",
    "chrome_trace",
    "to_jsonl",
    "summary",
    "export",
    "validate_chrome_trace",
]
