"""The interp backend's calls with a known target (DESIGN.md §5).

A call of a hoisted top-level function or a known local procedure with its
arity enters the callee's body directly, without the trampoline, on the
lower pass's facts that pyc uses too. ``tests/properties/
test_prop_pyc_calls.py`` checks that this never changes what a program
computes or charges; these tests pin the cases a direct call must still
get right, and that the direct paths are actually taken: the hot calls of
these programs reach no ``apply_procedure``.
"""

from __future__ import annotations

import pytest

from repro import ReproError, Runtime
from repro.core import backend, compile as compile_mod
from repro.core.lower import ModuleAnalysis


def _run(source: str, budget=None) -> tuple:
    with Runtime(backend="interp", budget=budget, cache=False) as rt:
        try:
            return rt.run_source(source, path="m"), None
        except ReproError as err:
            return None, (type(err).__name__, err.code, str(err),
                          getattr(err, "steps_consumed", None))


def _run_on_trampoline(source: str, budget=None) -> tuple:
    """``_run`` with every application on the trampoline: the module's
    analysis knows no hoisted function, known procedure or direct call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend, "module_analysis", lambda compiled: ModuleAnalysis())
        return _run(source, budget)


def _trampoline_calls(source: str, monkeypatch) -> int:
    """How many times compiled code enters ``apply_procedure``."""
    calls = []
    real = compile_mod.apply_procedure

    def counting(fn, args):
        calls.append(fn)
        return real(fn, args)

    monkeypatch.setattr(compile_mod, "apply_procedure", counting)
    output, error = _run(source)
    assert error is None, error
    return len(calls)


def test_a_bouncing_callee_is_drained():
    """``loop``'s self tail call bounces off the trampoline on interp
    (``LambdaInfo.bounces`` counts it as a pyc loop), so the non-tail
    direct call must drain the ``TailCall`` it returns."""
    source = """#lang racket
(define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc i))))
(displayln (+ 1 (loop 10 0)))
"""
    assert _run(source) == ("56\n", None)


@pytest.mark.parametrize("call", ["(g)", "(+ 1 (g))"], ids=["tail", "non-tail"])
def test_call_before_a_later_define(call):
    source = f"""#lang racket
(define (f) {call})
(displayln (f))
(define (g) 1)
"""
    _, error = _run(source)
    assert error[:3] == ("RuntimeReproError", "X001",
                         "g: undefined; referenced before definition")
    assert _run(source) == _run_on_trampoline(source)


@pytest.mark.parametrize("call", ["(g 1 2)", "(+ 1 (g))"], ids=["two", "none"])
def test_hoisted_function_with_another_arity(call):
    source = f"""#lang racket
(define (g x) x)
(define (f) {call})
(displayln (f))
"""
    _, error = _run(source)
    assert error[0] == "ArityError"
    assert error[2].startswith("g: expected 1 arguments, got ")
    assert _run(source) == _run_on_trampoline(source)


def test_letrec_procedure_read_before_initialization():
    """``k`` is known (only ever called, with its arity), but its
    ``letrec`` has a clause that is no lambda, so a call can come first."""
    source = """#lang racket
(displayln (letrec ([x (k 1)] [k (lambda (n) n)]) x))
"""
    assert _run(source) == (None, ("RuntimeReproError", "X001",
                                   "k: used before initialization", None))


MUTUAL_TAIL = {
    "hoisted": """#lang racket
(define (ping n) (if (= n 0) 'done (pong (- n 1))))
(define (pong n) (if (= n 0) 'done (ping (- n 1))))
(displayln (ping 100000))
""",
    "letrec": """#lang racket
(displayln (letrec ([ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))]
                    [od? (lambda (n) (if (= n 0) #f (ev? (- n 1))))])
             (ev? 100000)))
""",
}


@pytest.mark.parametrize("budget", [None, {"max_depth": 40}], ids=str)
@pytest.mark.parametrize("shape", sorted(MUTUAL_TAIL))
def test_deep_tail_recursion_through_a_cycle(shape, budget):
    """A tail call on a cycle stays on the trampoline: no RecursionError."""
    output, error = _run(MUTUAL_TAIL[shape], budget)
    assert error is None and output in ("done\n", "#t\n")


def test_deep_non_tail_recursion_under_a_depth_budget():
    """G003 fires at the step count of the trampoline's run."""
    source = """#lang racket
(define (descend n) (+ 1 (descend (+ n 1))))
(descend 0)
"""
    budget = {"max_depth": 3000}
    _, error = _run(source, budget)
    assert error[1] == "G003" and error[3] == 3001
    assert _run(source, budget) == _run_on_trampoline(source, budget)


def test_hot_calls_reach_no_trampoline(monkeypatch):
    """fib's recursive calls, and a known procedure called inside a
    hoisted function, are direct calls."""
    source = """#lang racket
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (f n) (letrec ([sq (lambda (x) (* x x))]) (+ (sq n) 1)))
(displayln (+ (fib 15) (f 5)))
"""
    assert _trampoline_calls(source, monkeypatch) == 0

