"""The per-compilation diagnostic collector.

One :class:`DiagnosticSession` lives on each :class:`ExpandContext`. Layers
of the pipeline (reader, expander, typecheckers) wrap per-form work in
:meth:`DiagnosticSession.recover`, which records a :class:`Diagnostic` for
any *recoverable* platform error and suppresses it so the layer can continue
with the next form. At the end of compilation :meth:`raise_if_errors`
raises — the original exception when exactly one problem was found (keeping
single-error behavior, and exception types, unchanged), or one aggregate
:class:`repro.errors.CompilationFailed` carrying every diagnostic.

Errors that poison everything downstream are *fatal* and never recovered:
a missing or cyclic dependency (:class:`ModuleError`) and an exhausted
expansion budget (:class:`ExpansionLimitError`) — recovering those would
bury one real problem under a pile of cascading ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional

from repro.diagnostics.diagnostic import Diagnostic
from repro.errors import (
    CompilationFailed,
    ExpansionLimitError,
    ModuleError,
    ReproError,
)

#: Error classes never swallowed by recovery.
FATAL_ERRORS = (CompilationFailed, ExpansionLimitError, ModuleError)


class DiagnosticSession:
    """Collects diagnostics for one module compilation.

    ``sources`` maps source names to the text this compilation read (the
    registry's ``sources``); each diagnostic takes its excerpt line from it
    when it is recorded (without it, diagnostics carry no excerpt).
    """

    def __init__(
        self, module_path: str, sources: Optional[Mapping[str, str]] = None
    ) -> None:
        self.module_path = module_path
        self.sources = sources
        self.diagnostics: list[Diagnostic] = []

    # -- recording ---------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def add_exception(self, err: BaseException) -> Diagnostic:
        """Record an exception as a diagnostic.

        Idempotent per exception object, and per (code, message, location):
        a multi-pass pipeline may trip over the same defect once per pass
        (e.g. a bad type annotation read in both typechecker passes), which
        is one problem, not two.
        """
        diagnostic = Diagnostic.from_error(err, self.sources)
        for existing in self.diagnostics:
            if existing.exception is err:
                return existing
            if (
                existing.code == diagnostic.code
                and existing.message == diagnostic.message
                and str(existing.srcloc) == str(diagnostic.srcloc)
            ):
                return existing
        self.diagnostics.append(diagnostic)
        return diagnostic

    # -- queries -----------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    # -- recovery ----------------------------------------------------------

    @contextmanager
    def recover(self) -> Iterator["DiagnosticSession"]:
        """Record and suppress a recoverable platform error.

        Fatal errors (see :data:`FATAL_ERRORS`) pass through untouched, as
        does anything that is not a :class:`ReproError` (an internal bug
        should crash loudly, not be reported as a user error).
        """
        try:
            yield self
        except FATAL_ERRORS:
            raise
        except ReproError as err:
            self.add_exception(err)

    def raise_if_errors(self) -> None:
        """Raise at a compilation barrier if any errors were collected.

        One error re-raises the original exception; several raise a single
        :class:`CompilationFailed` aggregating all of them.
        """
        errors = self.errors
        if not errors:
            return
        if len(errors) == 1 and errors[0].exception is not None:
            raise errors[0].exception
        raise CompilationFailed(list(self.diagnostics), self.module_path)


@dataclass(slots=True)
class CompileResult:
    """What ``Runtime.compile(path, diagnostics=True)`` returns."""

    module: Optional[Any]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.module is not None

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)
