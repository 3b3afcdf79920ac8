"""The pyc backend's calls with a known target (DESIGN.md §9).

``tests/test_backends.py`` checks that known procedures, direct tail calls
and flat closures never change what a program computes or charges; these
tests pin that the direct paths are actually taken: the hot functions of
the match-ext request and of bankers-queue reach no trampoline
(``_apply``, ``_tail``, or ``_dr``, which drains through
``apply_procedure``) and allocate no ``PyClosure``.
"""

from __future__ import annotations

import dis
import marshal
import sys
import types

import pytest

sys.path.insert(0, ".")  # benchmarks/ is a top-level package

from benchmarks.programs import ALL_PROGRAMS

from repro import Runtime

#: the match-ext program of the serve-mixed workload
MATCH_STEP = """#lang racket/match-ext
(define-match-expander point
  (syntax-rules () [(_ x y) (list 'point x y)]))
(define (step v)
  (match v
    [(list 'add a b) (+ a b)]
    [(list 'sub a b) (- a b)]
    [(list 'mul a b) (* a b)]
    [(cons 'neg r) (- 0 (car r))]
    [(point x y) (+ x y)]
    [(vector a b) (* a b)]
    [(vector a b c) (+ a (* b c))]
    [_ 0]))
(define (loop i acc)
  (if (= i 0)
      acc
      (loop (- i 1)
            (+ acc
               (step (list 'add i 1))
               (step (list 'mul i 2))
               (step (list 'point i i))
               (step (vector i 7))
               (step (vector i i i))))))
(displayln (loop 200 0))
"""

BANKERS_QUEUE = next(p for p in ALL_PROGRAMS if p.name == "bankers-queue")

#: the globals through which emitted code reaches the trampoline or makes
#: a closure object
TRAMPOLINE = {"_apply", "_tail", "_dr", "_PyClosure"}


def _function(source: str, name: str) -> types.CodeType:
    """The code object pyc emitted for the top-level function ``name``."""
    with Runtime(backend="pyc", cache=False) as rt:
        rt.run_source(source, path="m")
        unit = rt.registry.compiled["m"].pyc
    for const in marshal.loads(unit.code).co_consts:
        if isinstance(const, types.CodeType) and const.co_name.endswith(
            "_" + name.replace("-", "_")
        ):
            return const
    raise AssertionError(f"no function {name}")  # pragma: no cover


def _names(code: types.CodeType) -> set[str]:
    """Every global or attribute name ``code`` and its nested functions use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


@pytest.mark.parametrize("source, name", [
    (MATCH_STEP, "step"),
    ("#lang racket\n" + BANKERS_QUEUE.untyped, "enqueue"),
    ("#lang typed\n" + BANKERS_QUEUE.typed, "enqueue"),
])
def test_hot_function_reaches_no_trampoline(source, name):
    assert not _names(_function(source, name)) & TRAMPOLINE


def test_cps_tak_loops():
    """Flat captures make cps-tak's self tail call a loop: its closures
    copy the parameters, so one rebound set of locals serves them all."""
    cpstak = next(p for p in ALL_PROGRAMS if p.name == "cpstak")
    code = _function("#lang racket\n" + cpstak.untyped, "cps-tak")
    assert not code.co_cellvars  # nothing is shared through a cell
    assert any(i.opname.startswith("JUMP_BACKWARD")
               for i in dis.get_instructions(code))
