"""Event model of the observability subsystem.

One event vocabulary serves all three clients (stepper, coach, profiler):

- **span** events (``kind == "X"``, Chrome-trace "complete" events) cover a
  duration of pipeline work — reading, expansion, typechecking, optimizing,
  closure compilation, cache traffic, instantiation;
- **instant** events (``kind == "I"``) mark a point: one macro-transformer
  application, one optimization that fired, one near-miss, one cache hit.

Every event carries a *category* (the pipeline phase it belongs to), a
*name*, a timestamp relative to the owning tracer's epoch, an optional
source location, and a free-form ``attrs`` dict. The documented categories
are the :data:`CATEGORIES` set; exporters preserve unknown categories, so
languages built on the platform can add their own.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.syn.srcloc import SrcLoc

#: event kinds (Chrome trace phase letters)
SPAN = "X"
INSTANT = "I"

#: the pipeline categories emitted by the platform itself
CATEGORIES = frozenset(
    {
        "read",            # source text -> syntax objects
        "compile",         # whole-module compilation driver
        "dialect",         # one dialect's whole-module rewrite
        "expand",          # macro expansion to core forms
        "macro",           # one transformer application (stepper instants)
        "parse",           # core forms -> core AST
        "typecheck",       # a typed language's checker pass
        "optimize",        # a typed language's optimizer pass
        "coach",           # optimization fired / near-miss instants
        "cache",           # artifact cache load/store spans and hit/miss instants
        "closure-compile", # core AST -> Python closures
        "pyc-codegen",     # core AST -> CPython code objects (pyc backend)
        "pyc-link",        # binding a code-object unit to a namespace
        "run",             # executing a module body form
        "instantiate",     # whole-module instantiation driver
        "import",          # a Python import of a #lang module (import hook)
        "graph",           # compile_graph planning, worker pool, caller pass
        "serve",           # one compile-and-eval service request
        "guard",           # budget exhaustion and cancellation instants
    }
)

#: schema identifier written into every export (bump on breaking changes)
TRACE_SCHEMA = "repro-trace/1"


@dataclass(slots=True)
class TraceEvent:
    kind: str                       # SPAN or INSTANT
    category: str                   # one of CATEGORIES (extensible)
    name: str                       # macro name, module path, op name, ...
    ts: float                       # seconds since the tracer's epoch
    dur: float = 0.0                # seconds; spans only
    srcloc: Optional[SrcLoc] = None
    depth: int = 0                  # nesting depth (macro steps)
    attrs: dict[str, Any] = field(default_factory=dict)
    #: OS thread that recorded the event (a span records when it closes,
    #: on the thread that opened it)
    tid: int = field(default_factory=threading.get_native_id)

    def to_chrome(self) -> dict[str, Any]:
        """This event as one Chrome-trace / Perfetto ``traceEvents`` entry."""
        args = dict(self.attrs)
        if self.srcloc is not None:
            args["srcloc"] = str(self.srcloc)
        if self.depth:
            args["depth"] = self.depth
        entry: dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ph": "X" if self.kind == SPAN else "i",
            "ts": round(self.ts * 1e6, 3),  # microseconds
            "pid": os.getpid(),
            "tid": self.tid,
            "args": args,
        }
        if self.kind == SPAN:
            entry["dur"] = round(self.dur * 1e6, 3)
        else:
            entry["s"] = "t"  # instant scope: thread
        return entry

    def to_json(self) -> dict[str, Any]:
        """This event as one JSONL record (the raw, lossless export)."""
        record: dict[str, Any] = {
            "kind": self.kind,
            "cat": self.category,
            "name": self.name,
            "ts": round(self.ts, 9),
        }
        if self.kind == SPAN:
            record["dur"] = round(self.dur, 9)
        if self.srcloc is not None:
            record["srcloc"] = str(self.srcloc)
        if self.depth:
            record["depth"] = self.depth
        if self.attrs:
            record["attrs"] = self.attrs
        return record
