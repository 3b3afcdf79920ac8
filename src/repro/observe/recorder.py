"""The recorder protocol and the event bus.

The pipeline is threaded with *guarded* call sites::

    rec = current_recorder()
    if rec.enabled:
        rec.instant("cache", "hit", attrs={"path": path})

:class:`Recorder` is simultaneously the protocol and the no-op default:
``enabled`` is False and every method does nothing, so the disabled path
costs one attribute read per call site. :class:`Tracer` is the real
recorder — an append-only event bus that the stepper, coach, and profiler
clients all read (see :mod:`repro.observe.stepper`,
:mod:`repro.observe.coach`, :mod:`repro.observe.profiler`).

Like :mod:`repro.runtime.stats`, the *current* recorder is context-scoped:
a :class:`~repro.Runtime` activates its own tracer (or the no-op) for the
dynamic extent of each operation, so a Runtime records to its tracer and
nowhere else, and concurrent Runtimes never interleave events. A Runtime
built with ``trace=None`` adopts the recorder active where it is built
(``repro trace script.py`` runs the script under :func:`use_recorder`).
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.observe.events import INSTANT, SPAN, TraceEvent
from repro.syn.srcloc import SrcLoc

#: longest rendered syntax string kept per stepper event
_MAX_SYNTAX_CHARS = 2000


class Recorder:
    """No-op recorder: the protocol *and* the disabled default."""

    #: call sites check this before paying any recording cost
    enabled = False
    #: when True, macro steps also render input/output syntax (full stepper)
    capture_syntax = False

    def instant(
        self,
        category: str,
        name: str,
        srcloc: Optional[SrcLoc] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        pass

    @contextmanager
    def span(
        self,
        category: str,
        name: str,
        srcloc: Optional[SrcLoc] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> Iterator[None]:
        yield

    # -- stepper ------------------------------------------------------------

    def macro_step(
        self,
        name: str,
        srcloc: Optional[SrcLoc],
        depth: int,
        stx_in: Any = None,
        stx_out: Any = None,
        intro_scope: Optional[str] = None,
    ) -> None:
        pass

    # -- optimization coach -------------------------------------------------

    def opt_fired(
        self,
        rule: str,
        op: str,
        replacement: str,
        srcloc: Optional[SrcLoc],
        operand_types: Optional[list[str]] = None,
    ) -> None:
        pass

    def opt_near_miss(
        self,
        rule: str,
        op: str,
        reason: str,
        srcloc: Optional[SrcLoc],
        operand_types: Optional[list[str]] = None,
    ) -> None:
        pass


#: the shared no-op instance
NULL_RECORDER = Recorder()


class Tracer(Recorder):
    """The event bus: an append-only list of :class:`TraceEvent`.

    ``capture_syntax`` turns on the full macro stepper (input/output syntax
    rendered per transformer application — the expensive mode).
    ``max_events`` bounds memory on runaway workloads; once reached, further
    events are counted in :attr:`dropped` instead of stored.
    """

    enabled = True

    def __init__(
        self, *, capture_syntax: bool = False, max_events: int = 250_000
    ) -> None:
        self.capture_syntax = capture_syntax
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._epoch = time.perf_counter()

    # -- primitives ---------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def instant(
        self,
        category: str,
        name: str,
        srcloc: Optional[SrcLoc] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self._emit(
            TraceEvent(INSTANT, category, name, self._now(), srcloc=srcloc,
                       attrs=attrs or {})
        )

    @contextmanager
    def span(
        self,
        category: str,
        name: str,
        srcloc: Optional[SrcLoc] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> Iterator[None]:
        start = self._now()
        try:
            yield
        finally:
            self._emit(
                TraceEvent(
                    SPAN, category, name, start,
                    dur=self._now() - start, srcloc=srcloc, attrs=attrs or {},
                )
            )

    # -- stepper ------------------------------------------------------------

    @staticmethod
    def _render_syntax(stx: Any) -> str:
        from repro.syn.syntax import syntax_to_datum, write_datum

        try:
            text = write_datum(syntax_to_datum(stx))
        except Exception:  # never let rendering break the compile
            text = f"#<unrenderable {type(stx).__name__}>"
        if len(text) > _MAX_SYNTAX_CHARS:
            text = text[:_MAX_SYNTAX_CHARS] + " ..."
        return text

    def macro_step(
        self,
        name: str,
        srcloc: Optional[SrcLoc],
        depth: int,
        stx_in: Any = None,
        stx_out: Any = None,
        intro_scope: Optional[str] = None,
    ) -> None:
        attrs: dict[str, Any] = {}
        if intro_scope is not None:
            attrs["intro_scope"] = intro_scope
        if self.capture_syntax:
            if stx_in is not None:
                attrs["in"] = self._render_syntax(stx_in)
            if stx_out is not None:
                attrs["out"] = self._render_syntax(stx_out)
        self._emit(
            TraceEvent(INSTANT, "macro", name, self._now(), srcloc=srcloc,
                       depth=depth, attrs=attrs)
        )

    # -- optimization coach -------------------------------------------------

    def opt_fired(
        self,
        rule: str,
        op: str,
        replacement: str,
        srcloc: Optional[SrcLoc],
        operand_types: Optional[list[str]] = None,
    ) -> None:
        attrs: dict[str, Any] = {"rule": rule, "op": op, "replacement": replacement}
        if operand_types:
            attrs["operand_types"] = operand_types
        self._emit(
            TraceEvent(INSTANT, "coach", "fired", self._now(), srcloc=srcloc,
                       attrs=attrs)
        )

    def opt_near_miss(
        self,
        rule: str,
        op: str,
        reason: str,
        srcloc: Optional[SrcLoc],
        operand_types: Optional[list[str]] = None,
    ) -> None:
        attrs: dict[str, Any] = {"rule": rule, "op": op, "reason": reason}
        if operand_types:
            attrs["operand_types"] = operand_types
        self._emit(
            TraceEvent(INSTANT, "coach", "near-miss", self._now(), srcloc=srcloc,
                       attrs=attrs)
        )


# -- the current recorder (context-scoped) -----------------------------------

_ACTIVE: contextvars.ContextVar[Recorder] = contextvars.ContextVar(
    "repro_active_recorder", default=NULL_RECORDER
)


def current_recorder() -> Recorder:
    """The recorder instrumentation call sites should emit to."""
    return _ACTIVE.get()


@contextmanager
def use_recorder(recorder: Optional[Recorder]) -> Iterator[Recorder]:
    """Activate ``recorder`` (or the no-op) for a dynamic extent."""
    rec = recorder if recorder is not None else NULL_RECORDER
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)


def resolve_trace(trace: Any) -> Optional[Recorder]:
    """Map a ``Runtime(trace=...)`` argument to a recorder (or None).

    - ``None`` — adopt the recorder active where this is called, if any
      (how ``repro trace script.py`` observes the Runtimes a script builds);
    - ``False`` — tracing off;
    - ``True`` — a fresh :class:`Tracer` (spans + coach + macro names);
    - ``"full"`` — a fresh Tracer that also renders each macro step's
      input/output syntax;
    - a :class:`Recorder` instance — used as given (shareable).
    """
    if trace is None:
        active = _ACTIVE.get()
        return None if active is NULL_RECORDER else active
    if trace is False:
        return None
    if trace is True:
        return Tracer()
    if isinstance(trace, str):
        if trace == "full":
            return Tracer(capture_syntax=True)
        raise ValueError(f"unknown trace mode: {trace!r}")
    if isinstance(trace, Recorder):
        return trace
    raise TypeError(f"trace must be None, bool, 'full', or a Recorder: {trace!r}")
