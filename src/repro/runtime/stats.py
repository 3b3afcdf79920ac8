"""Instrumentation counters for the runtime.

The paper's optimizer (§7) communicates with the backend by emitting unsafe
type-specialized primitives that skip the run-time dispatch of generic
operations. To make the optimizer's effect observable *deterministically*
(independent of wall-clock noise), the runtime counts:

- ``generic_dispatches`` — calls to generic numeric operations that had to
  inspect their operands' runtime types;
- ``tag_checks`` — runtime type tests performed by safe primitives such as
  ``car`` or ``vector-ref``;
- ``unsafe_ops`` — calls to unsafe type-specialized primitives;
- ``contract_checks`` — dynamic contract checks at typed/untyped boundaries;
- ``expansion_steps`` — macro transformer applications performed by the
  expander (compile-time work, tracked so benchmark runs can watch the
  expander's cost and regressions in macro-heavy programs);
- ``cache_hits`` / ``cache_misses`` / ``cache_stores`` /
  ``cache_invalidations`` — compiled-artifact cache traffic (see
  :mod:`repro.modules.cache`).

``expansion_by_macro`` attributes the ``expansion_steps`` total to the
macro that performed each step (name -> count); :meth:`Stats.top_macros`
ranks it, and ``repro trace --format summary`` / the REPL's ``,stats``
render it.

One ``rt.stats.snapshot()`` covers everything — expansion, dispatch, and
cache traffic. Benchmarks report these alongside wall-clock time.

Counters are **per-Runtime**: each :class:`~repro.Runtime` owns a
:class:`Stats` instance (``rt.stats``) that :func:`use_stats` activates for
each of its operations. Every counter bump in the pipeline and the runtime
reads the operation's own Stats from one ``ContextVar``
(``current_stats().unsafe_ops += 1``); context variables are per-thread and
per-task, so concurrent or sequential Runtimes never bleed counts into each
other. Work done outside any operation (a primitive called directly from
Python) is charged to a private sink that no Runtime reads; wrap such calls
in ``with use_stats(Stats()) as s:`` to count them.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator, Union


@dataclass
class Stats:
    generic_dispatches: int = 0
    tag_checks: int = 0
    unsafe_ops: int = 0
    contract_checks: int = 0
    expansion_steps: int = 0
    #: evaluation steps (closure applications) charged by a governed run —
    #: the run-time mirror of ``expansion_steps`` (see repro.guard); stays 0
    #: for ungoverned Runtimes, which skip step accounting entirely
    eval_steps: int = 0
    #: constructor allocations charged by a governed run with an
    #: allocation budget
    eval_allocations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_invalidations: int = 0
    #: pyc-backend code generations (core AST -> CPython code object); a
    #: warm-cache run that loads a marshalled unit performs zero of these
    pyc_codegens: int = 0
    #: pyc-backend unit links (cells/prims resolved, code exec'd)
    pyc_links: int = 0
    #: expansion_steps attributed per macro name
    expansion_by_macro: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        for f in fields(Stats):
            if f.name == "expansion_by_macro":
                self.expansion_by_macro.clear()
            else:
                setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, Union[int, dict[str, int]]]:
        snap: dict[str, Union[int, dict[str, int]]] = {
            f.name: getattr(self, f.name)
            for f in fields(Stats)
            if f.name != "expansion_by_macro"
        }
        snap["expansion_by_macro"] = dict(self.expansion_by_macro)
        return snap

    def count_expansion_step(self, macro_name: str) -> None:
        self.expansion_steps += 1
        by_macro = self.expansion_by_macro
        by_macro[macro_name] = by_macro.get(macro_name, 0) + 1

    def top_macros(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` macros with the most expansion steps, descending."""
        ranked = sorted(
            self.expansion_by_macro.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:n]


#: the operation in progress's Stats; outside any operation the default, a
#: private sink, absorbs the counts
_ACTIVE: contextvars.ContextVar[Stats] = contextvars.ContextVar(
    "repro_active_stats", default=Stats()
)

#: the Stats every counter bump charges: ``current_stats().tag_checks += 1``
current_stats = _ACTIVE.get


@contextmanager
def use_stats(stats: Stats) -> Iterator[Stats]:
    """Activate ``stats`` for the dynamic extent of a Runtime operation."""
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)
