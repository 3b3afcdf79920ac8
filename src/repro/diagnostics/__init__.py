"""Structured diagnostics for the compilation pipeline.

The toolchain reports errors the way the paper demands production language
implementations do (§4): "in terms of the programmer's notation", with the
offending source text. This package supplies the machinery:

- :class:`Diagnostic` — one reported problem: severity, a stable error code
  (see :mod:`repro.diagnostics.codes`), message, source location, a rendered
  source excerpt with a caret, optional notes, and the macro-expansion
  backtrace that produced the offending form;
- :class:`DiagnosticSession` — the per-compilation collector that lets the
  reader, expander, and typecheckers *recover* after an error and keep
  looking for more, so one compile reports every problem it can find;
- :class:`CompileResult` — the value of ``Runtime.compile(path,
  diagnostics=True)``: the compiled module (or None) plus all diagnostics.
"""

from repro.diagnostics.codes import CODES, describe_code
from repro.diagnostics.diagnostic import Diagnostic, ExpansionFrame
from repro.diagnostics.session import CompileResult, DiagnosticSession

__all__ = [
    "CODES",
    "CompileResult",
    "Diagnostic",
    "DiagnosticSession",
    "ExpansionFrame",
    "describe_code",
]
