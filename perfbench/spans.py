"""Per-layer spans recorded from outside the program.

A traced run replaces each layer's public entry point with a wrapper, at
the place where its caller looks it up: a module attribute read at call
time (``registry.get_compiled`` imports ``compile_module`` inside the
function), a name bound at import time (``repro.tools.runner`` binds
``instantiate_module``), or a method on a class. Each wrapper records one
span: name, phase (set-up, timed pass, ...), op or request id, start, end,
parent span name, and self time, which is the duration minus the time its
child spans cover. Spans stay in memory and are written out when the run
ends. An entry point that no longer exists is reported as unmeasured with
its missing name instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class EntryPoint:
    """A layer's entry point: the span name and where its caller finds it."""

    span: str
    module: str
    attr: str  # "function" or "Class.method"
    #: what the call returns: "value", a "thunk" (the interp compiler's form
    #: closure) or "thunks" (the pyc linker's per-form functions); returned
    #: thunks are wrapped in turn, their calls timed as ``core.run``
    returns: str = "value"


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("reader", "repro.reader.lang_line", "read_module_source"),
    EntryPoint("dialects", "repro.dialects", "apply_dialects"),
    EntryPoint("expander", "repro.modules.compiler", "compile_module"),
    EntryPoint("langs.typecheck", "repro.langs.typed.checker",
               "FullChecker.check_module"),
    EntryPoint("langs.optimize", "repro.langs.typed.optimizer",
               "FullOptimizer.optimize_module_form"),
    EntryPoint("core.parse", "repro.modules.compiler", "parse_module_level_form"),
    EntryPoint("core.pyc.codegen", "repro.core.pyc", "codegen_module"),
    EntryPoint("core.pyc.link", "repro.core.pyc", "link_unit", returns="thunks"),
    EntryPoint("core.interp.compile", "repro.core.compile",
               "Compiler.compile_module_form", returns="thunk"),
    EntryPoint("modules.cache.load", "repro.modules.cache", "ModuleCache.load"),
    EntryPoint("modules.cache.store", "repro.modules.cache", "ModuleCache.store"),
    EntryPoint("modules.instantiate", "repro.tools.runner", "instantiate_module"),
    EntryPoint("tools.runtime_init", "repro.tools.runner", "Runtime.__init__"),
    EntryPoint("serve.handle", "repro.serve.server", "ReproServer.handle"),
    EntryPoint("serve.pool.checkout", "repro.serve.pool", "RuntimePool.checkout"),
)

#: spans with a time per pass; ``core.run`` comes from the returned thunks
TIMED_LAYERS: tuple[str, ...] = tuple(
    e.span for e in ENTRY_POINTS if e.span != "tools.runtime_init"
) + ("core.run",)

#: the span that starts a service request and names it for its children
REQUEST_SPAN = "serve.handle"


@dataclass(frozen=True)
class Span:
    name: str
    phase: str
    op: str
    start: float
    end: float
    self_s: float
    parent: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """The recorder: installs the wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: set by measure.py: "setup0", "warmup", "pass3", ...
        self.phase = "setup0"
        #: set by the batch workloads per op; requests carry their own ids
        self.op = "-"
        #: layer -> why it is not measured (its entry point is missing)
        self.unmeasured: dict[str, str] = {}
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that don't."""
        for entry in ENTRY_POINTS:
            owner, name = _resolve(entry)
            if owner is None:
                self.unmeasured[entry.span] = f"{entry.module}.{entry.attr} not found"
                continue
            original = getattr(owner, name)
            own = name in vars(owner)
            self._saved.append((owner, name, vars(owner).get(name), own))
            setattr(owner, name, self._wrap(entry, original))
        if "core.pyc.link" in self.unmeasured and "core.interp.compile" in self.unmeasured:
            self.unmeasured["core.run"] = "no form thunks to wrap"

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        call = self._call
        span = entry.span
        if entry.returns == "thunk":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self._run_thunk(call(span, fn, args, kwargs))
        elif entry.returns == "thunks":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return [self._run_thunk(t) for t in call(span, fn, args, kwargs)]
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(span, fn, args, kwargs)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _run_thunk(self, thunk: Callable[[], Any]) -> Callable[[], Any]:
        call = self._call
        return lambda: call("core.run", thunk, (), {})

    # -- recording ----------------------------------------------------------

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if not stack:
            local.op = (
                f"req{next(self._request_ids)}" if name == REQUEST_SPAN else self.op
            )
        frame = [name, 0.0]
        stack.append(frame)
        phase = self.phase
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += duration
            self.spans.append(Span(
                name, phase, local.op, start, end, duration - frame[1],
                parent[0] if parent is not None else None,
            ))

    # -- output -------------------------------------------------------------

    def write(self, filename: str) -> None:
        """Write every span as one JSON line."""
        with open(filename, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "phase": s.phase, "op": s.op,
                    "start": s.start, "end": s.end, "self": s.self_s,
                    "parent": s.parent,
                }) + "\n")


def _resolve(entry: EntryPoint) -> tuple[Any, str]:
    """The object holding the entry point and the attribute name, or
    ``(None, name)`` when the module, class or attribute is gone."""
    try:
        owner: Any = importlib.import_module(entry.module)
    except ImportError:
        return None, entry.attr
    *path, name = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    if not callable(getattr(owner, name, None)):
        return None, name
    return owner, name
