"""repro — "Languages as Libraries" (PLDI 2011) reproduced in Python.

An extensible-language platform in the style of Racket: a reader, hygienic
macro expander with syntax objects and ``local-expand``, module system with
``#lang`` dispatch and separate compilation — plus, built *as libraries on
top of it*, the paper's typed sister language with safe typed/untyped
interop and a type-driven optimizer.

Quickstart::

    from repro import Runtime

    rt = Runtime()
    print(rt.run_source('''#lang typed
    (: fib (Integer -> Integer))
    (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
    (displayln (fib 20))
    '''))
"""

import sys as _sys

# Object-language frames cost several Python frames each; deep (non-tail)
# recursion in benchmarks needs headroom. CPython >= 3.11 allocates frames on
# the heap, so a high limit is safe.
if _sys.getrecursionlimit() < 100_000:
    _sys.setrecursionlimit(100_000)

from repro.diagnostics import CompileResult, Diagnostic, DiagnosticSession
from repro.errors import (
    AmbiguousBindingError,
    BudgetExhausted,
    CompilationFailed,
    ContractViolation,
    EvaluationCancelled,
    ExpansionLimitError,
    ModuleError,
    ParseCoreError,
    ReaderError,
    ReproError,
    RuntimeReproError,
    SyntaxExpansionError,
    TypeCheckError,
    UnboundIdentifierError,
    WrongTypeError,
)
from repro.guard import Budget, CancelToken
from repro.observe import Recorder, Tracer
from repro.runtime.stats import Stats
from repro.tools.runner import Runtime

__version__ = "1.0.0"

__all__ = [
    "Runtime",
    "Stats",
    "Budget",
    "CancelToken",
    "BudgetExhausted",
    "EvaluationCancelled",
    "Recorder",
    "Tracer",
    "CompileResult",
    "Diagnostic",
    "DiagnosticSession",
    "ReproError",
    "ReaderError",
    "SyntaxExpansionError",
    "UnboundIdentifierError",
    "AmbiguousBindingError",
    "ExpansionLimitError",
    "ParseCoreError",
    "TypeCheckError",
    "CompilationFailed",
    "ContractViolation",
    "RuntimeReproError",
    "WrongTypeError",
    "ModuleError",
]
