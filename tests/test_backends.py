"""Differential suite: the pyc backend against the reference interpreter.

The pyc backend (DESIGN.md §9) lowers core AST to CPython code objects; the
interpreter walks closure-compiled trees. Both are full backends for the
same language, so every observable — values, printed output, diagnostic
codes, guard-exhaustion codes and step counts, instrumentation counters —
must agree exactly. This suite runs every benchmark program under every
configuration on both backends, plus hand-written feature and error
programs, the examples as subprocesses, and the fault-injection crash
scenario from ``test_faults.py`` under ``pyc``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

sys.path.insert(0, ".")  # benchmarks/ is a top-level package

from benchmarks.harness import CONFIGURATIONS
from benchmarks.programs import ALL_PROGRAMS

from repro import (
    Budget,
    BudgetExhausted,
    CancelToken,
    EvaluationCancelled,
    ReproError,
    Runtime,
)
from repro.faults import FaultPlan, InjectedCrash

BACKENDS = ("interp", "pyc")

#: counters that must agree exactly across backends
COUNTERS = (
    "generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks"
)


def run_under(backend: str, source: str, *, budget=None, path="<diff>",
              modules=None):
    """Run ``source`` on ``backend``; return ``(output, error, stats)``.

    ``modules`` maps module paths ``source`` may require to their text.
    ``error`` is ``None`` on success, else ``(type-name, code, message,
    steps_consumed)`` — everything the two backends must agree on when a
    program fails.
    """
    with Runtime(backend=backend, budget=budget) as rt:
        for module_path, text in (modules or {}).items():
            rt.register_module(module_path, text)
        try:
            output = rt.run_source(source, path=path)
            error = None
        except (BudgetExhausted, EvaluationCancelled) as err:
            output = None
            error = (
                type(err).__name__, err.code, str(err), err.steps_consumed
            )
        except ReproError as err:
            output = None
            error = (
                type(err).__name__, getattr(err, "code", None), str(err), None
            )
        return output, error, rt.stats.snapshot()


def assert_backends_agree(source: str, *, budget=None, modules=None):
    interp = run_under("interp", source, budget=budget, modules=modules)
    pyc = run_under("pyc", source, budget=budget, modules=modules)
    assert interp[0] == pyc[0], "output differs between backends"
    assert interp[1] == pyc[1], "diagnostic differs between backends"
    for counter in COUNTERS + (("eval_steps",) if budget is not None else ()):
        assert interp[2][counter] == pyc[2][counter], (
            f"{counter}: interp={interp[2][counter]} pyc={pyc[2][counter]}"
        )


# ---------------------------------------------------------------------------
# every benchmark program, every configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", CONFIGURATIONS)
@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_benchmark_program_differential(figure_cell, program, config):
    interp = figure_cell("interp", program, config)
    pyc = figure_cell("pyc", program, config)
    assert interp.output == pyc.output
    assert interp.generic_dispatches == pyc.generic_dispatches
    assert interp.tag_checks == pyc.tag_checks
    assert interp.unsafe_ops == pyc.unsafe_ops
    assert interp.contract_checks == pyc.contract_checks


# ---------------------------------------------------------------------------
# language features, hand-written
# ---------------------------------------------------------------------------

FEATURE_PROGRAMS = {
    "multiple-values": """#lang racket
(define-values (q r) (values 17 5))
(displayln (+ q r))
(call-with-values (lambda () (values 1 2 3)) (lambda (a b c) (displayln (list a b c))))
""",
    "set!-cells": """#lang racket
(define counter
  (let ([n 0])
    (lambda () (set! n (+ n 1)) n)))
(counter)
(counter)
(displayln (counter))
""",
    "letrec-mutual": """#lang racket
(define (even? n) (if (= n 0) #t (odd? (- n 1))))
(define (odd? n) (if (= n 0) #f (even? (- n 1))))
(displayln (even? 10001))
""",
    "deep-non-tail": """#lang racket
(define (count n) (if (= n 0) 0 (+ 1 (count (- n 1)))))
(displayln (count 300))
""",
    "tail-loop": """#lang racket
(define (iter n acc) (if (= n 0) acc (iter (- n 1) (+ acc 1))))
(displayln (iter 100000 0))
""",
    "rest-args": """#lang racket
(define (f x . rest) (cons x rest))
(displayln (f 1 2 3))
(displayln (apply f (list 10 20)))
""",
    "higher-order": """#lang racket
(displayln (map (lambda (x) (* x x)) (list 1 2 3 4)))
(displayln (foldl + 0 (list 1 2 3 4 5)))
""",
    "vectors-strings": """#lang racket
(define v (make-vector 3 0))
(vector-set! v 1 "mid")
(displayln (vector-ref v 1))
(displayln (string-append "a" "b" "c"))
""",
    "shadowing-let": """#lang racket
(define x 1)
(displayln (let ([x 2]) (let ([x (+ x 10)]) x)))
(displayln x)
""",
}


@pytest.mark.parametrize("name", sorted(FEATURE_PROGRAMS))
def test_feature_differential(name):
    assert_backends_agree(FEATURE_PROGRAMS[name])


@pytest.mark.parametrize("name", sorted(FEATURE_PROGRAMS))
def test_feature_differential_governed(name):
    """Same programs under a counting guard: eval_steps must match too."""
    assert_backends_agree(FEATURE_PROGRAMS[name], budget=True)


def test_typed_untyped_contract_boundary():
    """A typed module required from untyped code raises the same contract
    diagnostic (code and message) on both backends."""
    typed = """#lang typed
(define (double [n : Integer]) : Integer (* 2 n))
(provide double)
"""
    untyped = """#lang racket
(require "t")
(displayln (double "nope"))
"""
    results = []
    for backend in BACKENDS:
        with Runtime(backend=backend) as rt:
            rt.register_module("t", typed)
            rt.register_module("u", untyped)
            try:
                results.append(("ok", rt.run("u")))
            except ReproError as err:
                results.append((type(err).__name__,
                                getattr(err, "code", None), str(err)))
    assert results[0] == results[1]
    assert results[0][0] != "ok"


# ---------------------------------------------------------------------------
# what a reference denotes is fixed when its module compiles: a definition
# of a kernel name binds the defining module's own key, imports are
# immutable, and a variable holding a primitive is read when the call runs
# ---------------------------------------------------------------------------

SHADOWING_LIB = """#lang racket
(define (even? n) 42)
(provide even?)
"""

KERNEL_REFERENCE_PROGRAMS = {
    "definition-stays-in-its-module": (
        {"a": SHADOWING_LIB},
        '#lang racket\n(require (only-in "a"))\n(displayln (even? 3))\n',
        "#f\n",
    ),
    "required-definition-of-kernel-name": (
        {"a": SHADOWING_LIB},
        '#lang racket\n(require "a")\n(displayln (even? 3))\n',
        "42\n",
    ),
    "variable-holding-primitive": (
        {},
        "#lang racket\n(define add +)\n(define (f) (add 1 2))\n"
        "(set! add -)\n(displayln (f))\n",
        "-1\n",
    ),
}


@pytest.mark.parametrize("budget", (None, True), ids=("ungoverned", "governed"))
@pytest.mark.parametrize("name", sorted(KERNEL_REFERENCE_PROGRAMS))
def test_kernel_reference_differential(name, budget):
    modules, source, expected = KERNEL_REFERENCE_PROGRAMS[name]
    # interp is the oracle; pyc must agree with it on everything
    output, error, _ = run_under("interp", source, budget=budget, modules=modules)
    assert (output, error) == (expected, None)
    assert_backends_agree(source, budget=budget, modules=modules)


#: name -> (required modules, program, line of its set! form)
SET_REQUIRED_PROGRAMS = {
    "kernel-primitive": (
        {}, "#lang racket\n(set! car cdr)\n(car (list 1 2))\n", 2,
    ),
    "required-variable": (
        {"a": "#lang racket\n(define x 1)\n(provide x)\n"},
        '#lang racket\n(require "a")\n(set! x 2)\n', 3,
    ),
}


@pytest.mark.parametrize("budget", (None, True), ids=("ungoverned", "governed"))
@pytest.mark.parametrize("name", sorted(SET_REQUIRED_PROGRAMS))
def test_set_of_required_identifier_rejected(name, budget):
    modules, source, line = SET_REQUIRED_PROGRAMS[name]
    errors = []
    for backend in BACKENDS:
        with Runtime(backend=backend, budget=budget) as rt:
            for module_path, text in modules.items():
                rt.register_module(module_path, text)
            with pytest.raises(ReproError) as info:
                rt.run_source(source, path="<set>")
            err = info.value
            errors.append((type(err).__name__, err.code, err.message,
                           (err.srcloc.line, err.srcloc.column)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == ("SyntaxExpansionError", "E001")
    assert errors[0][2].startswith(
        "set!: cannot mutate module-required identifier"
    )
    assert errors[0][3] == (line, 0)  # the set! form


# ---------------------------------------------------------------------------
# an explicit require's names conflict with a definition of the same name and
# with another require's different binding (Racket's rule); the #lang's own
# import is shadowed instead, and one binding may arrive by two paths
# ---------------------------------------------------------------------------

IMPORT_LIBS = {
    "a": "#lang racket\n(define x 1)\n(provide x)\n",
    "c": "#lang racket\n(define x 3)\n(provide x)\n",
    "b": '#lang racket\n(require "a")\n(provide x)\n',
}

#: name -> (program, line of the offending form, the two sources of x)
IMPORT_CONFLICT_PROGRAMS = {
    "definition-after-require": (
        '#lang racket\n(require "a")\n(define x 2)\n(displayln x)\n', 3, ("a", "<conflict>"),
    ),
    "require-after-definition": (
        '#lang racket\n(define x 2)\n(require "a")\n(displayln x)\n', 3, ("a", "<conflict>"),
    ),
    "syntax-definition-after-require": (
        '#lang racket\n(require "a")\n'
        "(define-syntax x (syntax-rules () [(_) 2]))\n", 3, ("a", "<conflict>"),
    ),
    "two-requires-different-bindings": (
        '#lang racket\n(require "a")\n(require "c")\n(displayln x)\n', 3, ("a", "c"),
    ),
    "renamed-require-over-require": (
        '#lang racket\n(require "c")\n(require (rename-in "a" (x x)))\n', 3, ("c", "a"),
    ),
}


@pytest.mark.parametrize("name", sorted(IMPORT_CONFLICT_PROGRAMS))
def test_import_conflict_rejected(name):
    source, line, sources = IMPORT_CONFLICT_PROGRAMS[name]
    errors = []
    for backend in BACKENDS:
        with Runtime(backend=backend) as rt:
            for module_path, text in IMPORT_LIBS.items():
                rt.register_module(module_path, text)
            with pytest.raises(ReproError) as info:
                rt.run_source(source, path="<conflict>")
            err = info.value
            errors.append((type(err).__name__, err.code, err.message,
                           err.srcloc.line))
    assert errors[0] == errors[1]
    kind, code, message, at = errors[0]
    assert (kind, code, at) == ("SyntaxExpansionError", "E001", line)
    assert message.startswith("module: identifier x ")
    for source_path in sources:
        assert f" {source_path} " in message


IMPORT_ACCEPTED_PROGRAMS = {
    "one-binding-two-paths": (
        '#lang racket\n(require "a")\n(require "b")\n(require (only-in "a" x))\n'
        "(displayln x)\n", "1\n",
    ),
    "require-shadows-lang-import": (
        '#lang racket\n(require (rename-in "a" (x car)))\n(displayln car)\n', "1\n",
    ),
    "definition-shadows-lang-import": (
        "#lang racket\n(define (car p) 5)\n(displayln (car 1))\n", "5\n",
    ),
}


@pytest.mark.parametrize("name", sorted(IMPORT_ACCEPTED_PROGRAMS))
def test_import_without_conflict_accepted(name):
    source, expected = IMPORT_ACCEPTED_PROGRAMS[name]
    output, error, _ = run_under("interp", source, modules=IMPORT_LIBS)
    assert (output, error) == (expected, None)
    assert_backends_agree(source, modules=IMPORT_LIBS)


# ---------------------------------------------------------------------------
# runtime errors: identical diagnostics, identical counters on the way down
# ---------------------------------------------------------------------------

ERROR_PROGRAMS = {
    "car-of-non-pair": "#lang racket\n(car 5)\n",
    "vector-out-of-range": "#lang racket\n(vector-ref (vector 1 2) 9)\n",
    "add-non-number": "#lang racket\n(+ 1 \"x\")\n",
    "compare-non-real": "#lang racket\n(< 1 \"y\")\n",
    "use-before-definition": "#lang racket\n(define a b)\n(define b 1)\n",
    "arity-mismatch": "#lang racket\n(define (f x y) x)\n(f 1)\n",
    "apply-non-procedure": "#lang racket\n(define x 3)\n(x 1 2)\n",
}


@pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
def test_error_differential(name):
    assert_backends_agree(ERROR_PROGRAMS[name])



# ---------------------------------------------------------------------------
# single-value bindings: a primitive that can return an operand as it is
# ---------------------------------------------------------------------------

#: each binds one id to a call that hands back a Values operand: both
#: backends must check the binding's value count (pyc skips the check only
#: for primitives whose record says they never return a Values object)
OPERAND_RETURNING = {
    "append": '(let ([x (append (values 1 2))]) (displayln "bound"))',
    "append-last": '(let ([x (append (list) (values 1 2))]) (displayln "bound"))',
    "list*": '(let ([x (list* (values 1 2))]) (displayln "bound"))',
    "list-tail": '(let ([x (list-tail (values 1 2) 0)]) (displayln "bound"))',
    "in-function": "(define (f) (let ([x (append (list) (values 1 2))]) x))\n(f)",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(OPERAND_RETURNING))
def test_single_binding_checks_an_operand_returned_as_is(name, backend):
    output, error, _ = run_under(
        backend, "#lang racket\n" + OPERAND_RETURNING[name] + "\n"
    )
    assert output is None
    assert error[2] == "binding expects 1 value, got 2"


#: the one operand of ``+ * min max`` is checked as Racket checks it, with
#: the error of the two-operand path and no counter charged
LONE_OPERANDS = [
    ("+", "'a", "number?"), ("*", "'a", "number?"),
    ("min", "(list 1)", "real?"), ("max", '"s"', "real?"),
    ("min", "1+2i", "real?"), ("+", "(values 1 2)", "number?"),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op, operand, expected", LONE_OPERANDS)
def test_lone_operand_is_checked(op, operand, expected, backend):
    lone = run_under(backend, f"#lang racket\n(let ([x ({op} {operand})]) x)\n")
    pair = run_under(backend, f"#lang racket\n({op} {operand} 1)\n")
    assert lone[0] is None and lone[1][:2] == ("WrongTypeError", "X002")
    assert lone[1][2].startswith(f"{op}: expected {expected}, given: ")
    assert lone[1][2] == pair[1][2]
    assert lone[2]["generic_dispatches"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_lone_operand_in_domain_is_returned(backend):
    source = ("#lang racket\n"
              "(displayln (list (+ 5) (* 1/2) (min 2.5) (max -3) (+ 1+2i)))\n")
    output, error, stats = run_under(backend, source)
    assert (output, error) == ("(5 1/2 2.5 -3 1.0+2.0i)\n", None)
    assert stats["generic_dispatches"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_typed_sqrt_of_a_negative_float_is_the_untyped_root(backend):
    """The typed optimizer turns ``sqrt`` of a ``Float`` into
    ``unsafe-flsqrt``, which must give a negative flonum's imaginary root
    as ``sqrt`` does."""
    typed = "#lang typed/racket\n(define x : Float -4.0)\n(displayln (sqrt x))\n"
    untyped = "#lang racket\n(define x -4.0)\n(displayln (sqrt x))\n"
    assert run_under(backend, typed)[:2] == ("0.0+2.0i\n", None)
    assert run_under(backend, untyped)[:2] == ("0.0+2.0i\n", None)

# ---------------------------------------------------------------------------
# unsafe operations keep the checks on values the types do not prove
# ---------------------------------------------------------------------------

#: (operation on ``a`` and ``b``, their types, their values): typed code
#: runs the unsafe primitive, untyped code the checked one; both must fail
#: with the same error
UNPROVEN_CHECKS = {
    "quotient-by-zero": ("(quotient a b)", ("Integer", "Integer"), "7 0"),
    "remainder-by-zero": ("(remainder a b)", ("Integer", "Integer"), "7 0"),
    "fc-div-by-zero": ("(/ a b)", ("Float-Complex", "Float-Complex"),
                       "1.0+1.0i 0.0+0.0i"),
    "vector-ref-past-end": ("(vector-ref a b)", ("(Vectorof Integer)", "Integer"),
                            "(vector 1 2 3) 5"),
    "vector-ref-negative": ("(vector-ref a b)", ("(Vectorof Integer)", "Integer"),
                            "(vector 1 2 3) -1"),
    "vector-set-past-end": ("(vector-set! a b 0)", ("(Vectorof Integer)", "Integer"),
                            "(vector 1 2 3) 5"),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(UNPROVEN_CHECKS))
def test_typed_code_keeps_checks_its_types_do_not_prove(name, backend):
    body, (ta, tb), operands = UNPROVEN_CHECKS[name]
    typed = (f"#lang typed/racket\n(define (f [a : {ta}] [b : {tb}]) {body})\n"
             f"(f {operands})\n")
    untyped = f"#lang racket\n(define (f a b) {body})\n(f {operands})\n"
    t_out, t_err, t_stats = run_under(backend, typed)
    u_out, u_err, _ = run_under(backend, untyped)
    assert t_out is None and u_out is None
    assert t_err == u_err
    assert t_err[1] in ("X001", "X002")
    # the unsafe primitive still charges one unsafe_ops and no tag check
    assert (t_stats["unsafe_ops"], t_stats["tag_checks"]) == (1, 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", ["quotient", "remainder"])
def test_typed_fixnum_division_charges_one_unsafe_op(op, backend):
    source = (f"#lang typed/racket\n(define (f [a : Integer] [b : Integer])"
              f" : Integer ({op} a b))\n(displayln (f -7 2))\n")
    output, error, stats = run_under(backend, source)
    assert (output, error) == ("-3\n" if op == "quotient" else "-1\n", None)
    assert stats["unsafe_ops"] == 1


# ---------------------------------------------------------------------------
# guard exhaustion: G001–G005 with identical codes and step counts
# ---------------------------------------------------------------------------

LOOP = "#lang racket\n(define (loop) (loop))\n(loop)\n"
DEEP = ERROR_PROGRAMS  # noqa: F841  (documentation cross-ref only)


class TestGuardParity:
    def test_g001_step_budget_identical_step_counts(self):
        assert_backends_agree(LOOP, budget={"steps": 5000})
        _, error, _ = run_under("pyc", LOOP, budget={"steps": 5000})
        assert error[1] == "G001"

    def test_g002_deadline_fires_on_both(self):
        for backend in BACKENDS:
            _, error, _ = run_under(backend, LOOP, budget={"seconds": 0.2})
            assert error is not None and error[1] == "G002", backend

    def test_g003_depth_budget_identical(self):
        deep = FEATURE_PROGRAMS["deep-non-tail"]
        assert_backends_agree(deep, budget={"max_depth": 50})
        _, error, _ = run_under("pyc", deep, budget={"max_depth": 50})
        assert error[1] == "G003"

    def test_g003_tail_calls_do_not_deepen_on_either_backend(self):
        assert_backends_agree(
            FEATURE_PROGRAMS["tail-loop"], budget={"max_depth": 50}
        )
        output, error, _ = run_under(
            "pyc", FEATURE_PROGRAMS["tail-loop"], budget={"max_depth": 50}
        )
        assert error is None and output == "100000\n"

    def test_g004_allocation_budget_identical(self):
        bomb = """#lang racket
(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
(displayln (length (build 500)))
"""
        assert_backends_agree(bomb, budget={"allocations": 100})
        _, error, _ = run_under("pyc", bomb, budget={"allocations": 100})
        assert error[1] == "G004"

    #: allocating two-operand primitive sites whose operands are a local
    #: of the innermost frame and a constant: the shapes the interp
    #: compiler reads in place, and where pyc calls the primitive directly
    SPECIALIZED_SITES = """#lang racket
(define (fill i acc)
  (if (= i 0)
      acc
      (fill (- i 1) (cons (vector i 0) (cons i '())))))
(displayln (length (fill 300 '())))
"""

    @pytest.mark.parametrize("budget, code", [
        ({"allocations": 250}, "G004"),
        ({"steps": 200}, "G001"),
    ])
    def test_specialized_sites_keep_charges(self, budget, code):
        assert_backends_agree(self.SPECIALIZED_SITES, budget=budget)
        interp = run_under("interp", self.SPECIALIZED_SITES, budget=budget)
        assert interp[1] is not None and interp[1][1] == code, interp[1]
        assert_backends_agree(self.SPECIALIZED_SITES, budget=True)

    def test_g005_cancellation_identical(self):
        token = CancelToken()
        token.cancel("host shutdown")
        results = []
        for backend in BACKENDS:
            with Runtime(backend=backend,
                         budget=Budget(cancel=token)) as rt:
                with pytest.raises(EvaluationCancelled) as excinfo:
                    rt.run_source(LOOP, path="<g005>")
            results.append((excinfo.value.code, str(excinfo.value)))
        assert results[0] == results[1]
        assert results[0][0] == "G005"

    def test_successful_run_has_identical_step_counts(self):
        fib = """#lang racket
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(displayln (fib 15))
"""
        assert_backends_agree(fib, budget=True)


# ---------------------------------------------------------------------------
# pyc calls with a known target (DESIGN.md §9): known local procedures,
# acyclic direct tail calls and flat closures keep interp's semantics
# ---------------------------------------------------------------------------

#: the budgets every program below runs under: none, counting only, and
#: limits that the runs below reach on some programs
CALL_BUDGETS = (None, True, {"max_depth": 40}, {"steps": 5000})

CALL_PROGRAMS = {
    # a self tail call loop whose closures capture the parameter and a
    # `let` id of the body: each closure keeps its own iteration's value
    "closure-per-iteration": """#lang racket
(define (collect i acc)
  (if (= i 5)
      acc
      (let ([j (* i 10)])
        (collect (+ i 1) (cons (lambda () (+ i j)) acc)))))
(displayln (map (lambda (f) (f)) (collect 0 '())))
(define (named n)
  (let loop ([i 0] [acc '()])
    (if (= i n) acc (loop (+ i 1) (cons (lambda () i) acc)))))
(displayln (map (lambda (f) (f)) (named 4)))
""",
    # a closure over a `set!` parameter shares its cell: the loop that
    # makes it must not rebind one cell for every iteration
    "closure-over-set!-local": """#lang racket
(define (collect i acc)
  (if (= i 3)
      acc
      (collect (+ i 1) (cons (lambda () (set! i (+ i 100)) i) acc))))
(displayln (map (lambda (f) (f)) (collect 0 '())))
(define (pair)
  (let ([x 1])
    (let ([get (lambda () x)] [put (lambda (v) (set! x v))])
      (put 5)
      (get))))
(displayln (pair))
""",
    # a closure made before a letrec procedure is initialized sees it
    # once it is
    "closure-over-letrec-procedure": """#lang racket
(define (f)
  (letrec ([call-h (lambda () (h 1))]
           [saved call-h]
           [h (lambda (n) (* n 10))])
    (saved)))
(displayln (f))
""",
    # a letrec procedure called before its clause runs
    "letrec-call-before-initialization": """#lang racket
(define (f)
  (letrec ([a (lambda () (b 1))]
           [x (a)]
           [b (lambda (n) n)])
    x))
(f)
""",
    "non-tail-call-of-a-later-definition": """#lang racket
(define (f n) (+ 1 (g n)))
(displayln (f 1))
(define (g n) n)
""",
    "tail-call-of-a-later-definition": """#lang racket
(define (f n) (g n))
(displayln (f 1))
(define (g n) n)
""",
    # a chain of known procedures in tail position inside a non-tail
    # recursion: every level charges each procedure's entry
    "known-tail-chain": """#lang racket
(define (deep n)
  (let ([k1 (lambda (m) (+ 1 (deep (- m 1))))])
    (let ([k2 (lambda (m) (k1 m))])
      (let ([k3 (lambda (m) (k2 m))])
        (if (= n 0) 0 (k3 n))))))
(displayln (deep 200))
""",
    "top-level-tail-chain": """#lang racket
(define (a n) (if (= n 0) 0 (b n)))
(define (b n) (c n))
(define (c n) (+ 1 (a (- n 1))))
(displayln (a 200))
""",
}

#: mutual tail recursion far past CPython's recursion limit
MUTUAL_TAIL = {
    "top-level": """#lang racket
(define (ev? n) (if (= n 0) #t (od? (- n 1))))
(define (od? n) (if (= n 0) #f (ev? (- n 1))))
(displayln (ev? 200000))
""",
    "letrec": """#lang racket
(define (run n)
  (letrec ([ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))]
           [od? (lambda (n) (if (= n 0) #f (ev? (- n 1))))])
    (ev? n)))
(displayln (run 200000))
""",
    "known-hop": """#lang racket
(define (g n) (let ([k (lambda (m) (h m))]) (k n)))
(define (h n) (if (= n 0) 'done (g (- n 1))))
(displayln (g 200000))
""",
}


@pytest.mark.parametrize("budget", CALL_BUDGETS, ids=str)
@pytest.mark.parametrize("name", sorted(CALL_PROGRAMS))
def test_known_call_differential(name, budget):
    assert_backends_agree(CALL_PROGRAMS[name], budget=budget)


@pytest.mark.parametrize("name, expected", [
    ("closure-per-iteration", "(44 33 22 11 0)\n(3 2 1 0)\n"),
    ("closure-over-set!-local", "(102 101 100)\n5\n"),
    ("closure-over-letrec-procedure", "10\n"),
    ("known-tail-chain", "200\n"),
    ("top-level-tail-chain", "200\n"),
])
def test_known_call_output(name, expected):
    output, error, _ = run_under("pyc", CALL_PROGRAMS[name])
    assert (output, error) == (expected, None)


@pytest.mark.parametrize("name, message", [
    ("letrec-call-before-initialization", "b: used before initialization"),
    ("non-tail-call-of-a-later-definition",
     "g: undefined; referenced before definition"),
    ("tail-call-of-a-later-definition",
     "g: undefined; referenced before definition"),
])
def test_call_before_definition_raises(name, message):
    _, error, _ = run_under("pyc", CALL_PROGRAMS[name])
    assert error is not None and error[2] == message


@pytest.mark.parametrize("name", ["known-tail-chain", "top-level-tail-chain"])
def test_tail_chain_g003_at_interp_step_count(name):
    budget = {"max_depth": 40}
    assert_backends_agree(CALL_PROGRAMS[name], budget=budget)
    _, error, _ = run_under("pyc", CALL_PROGRAMS[name], budget=budget)
    assert error[1] == "G003"


@pytest.mark.parametrize("budget", [None, {"max_depth": 40},
                                    {"steps": 150000}], ids=str)
@pytest.mark.parametrize("shape", sorted(MUTUAL_TAIL))
def test_deep_mutual_tail_recursion(shape, budget):
    """No RecursionError on either backend, and the same step count at
    G001 when a budget ends the run."""
    assert_backends_agree(MUTUAL_TAIL[shape], budget=budget)
    output, error, _ = run_under("pyc", MUTUAL_TAIL[shape], budget=budget)
    if budget is not None and "steps" in budget:
        assert error[1] == "G001"
    else:
        assert error is None and output in ("#t\n", "done\n")


# ---------------------------------------------------------------------------
# examples/ as subprocesses, selected via $REPRO_BACKEND
# ---------------------------------------------------------------------------

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def _run_example(name: str, backend: str) -> str:
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = os.pathsep.join(
        ["src", env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
        timeout=120,
    )
    assert proc.returncode == 0, f"{name} [{backend}] failed:\n{proc.stderr}"
    return proc.stdout


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_differential(name):
    import re

    def normalize(text: str) -> str:
        # optimizer_tour prints wall-clock timings; mask them
        return re.sub(r"\s*\d+(\.\d+)?\s*ms", " X ms", text)

    assert normalize(_run_example(name, "interp")) == normalize(
        _run_example(name, "pyc")
    )


# ---------------------------------------------------------------------------
# cache: warm starts skip codegen; faults recover; doctor reports old formats
# ---------------------------------------------------------------------------

SOURCE = "#lang racket\n(define (sq x) (* x x))\n(displayln (sq 7))\n"
EXPECTED = "49\n"


def pyc_cached_runtime(tmp_path, **modules) -> Runtime:
    rt = Runtime(cache_dir=str(tmp_path / "cache"), backend="pyc")
    for path, source in modules.items():
        rt.register_module(path, source)
    return rt


class TestPycCache:
    def test_warm_start_skips_codegen(self, tmp_path):
        with pyc_cached_runtime(tmp_path, m=SOURCE) as rt:
            assert rt.run("m") == EXPECTED
            assert rt.stats.pyc_codegens >= 1
            assert rt.stats.cache_stores == 1
        with pyc_cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            assert rt2.stats.cache_hits == 1
            # the marshalled code objects came out of the .zo artifact:
            # zero code generation on the warm path
            assert rt2.stats.pyc_codegens == 0
            assert rt2.stats.pyc_links >= 1

    def test_interp_artifact_upgraded_for_pyc_runtime(self, tmp_path):
        """An artifact stored by an interp Runtime is still usable by a pyc
        Runtime (which generates and runs code for it)."""
        with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
            rt.register_module("m", SOURCE)
            assert rt.run("m") == EXPECTED
        with pyc_cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            assert rt2.stats.cache_hits == 1

    def test_mid_instantiation_crash_leaves_recoverable_debris(
        self, tmp_path
    ):
        """``test_faults.py``'s crash-between-write-and-rename scenario,
        under the pyc backend: the kill surfaces, the cache holds only
        torn-write debris (never a torn artifact), and a later runtime
        recovers by recompiling."""
        rt = pyc_cached_runtime(tmp_path, m=SOURCE)
        rt.cache.fault_plan = FaultPlan().rule("cache.replace", "crash")
        with pytest.raises(InjectedCrash):
            rt.run("m")
        cache_dir = rt.cache.dir
        debris = [n for n in os.listdir(cache_dir) if ".tmp." in n]
        assert debris
        assert not [n for n in os.listdir(cache_dir) if n.endswith(".zo")]
        rt.close()
        with pyc_cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            # the recovery store may reuse (and rename away) the debris
            # file's name within this process; doctor sweeps what is left
            remaining = [n for n in os.listdir(cache_dir) if ".tmp." in n]
            report = rt2.cache.doctor()
            assert sorted(report["tmp_removed"]) == sorted(remaining)
            assert not [
                n for n in os.listdir(cache_dir) if ".tmp." in n
            ]

    def test_backend_precedence_explicit_beats_env(self, monkeypatch):
        """Backend selection precedence: the explicit ``Runtime(backend=)``
        argument beats ``$REPRO_BACKEND``, which beats the default."""
        monkeypatch.setenv("REPRO_BACKEND", "pyc")
        with Runtime(backend="interp") as rt:
            assert rt.backend == "interp"
        with Runtime() as rt:
            assert rt.backend == "pyc"
        monkeypatch.delenv("REPRO_BACKEND")
        with Runtime() as rt:
            assert rt.backend == "interp"

    def test_backend_precedence_explicit_beats_bad_env(self, monkeypatch):
        """An invalid env value must not poison an explicit choice — the
        env is only consulted when no argument is given."""
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with Runtime(backend="interp") as rt:
            assert rt.run_source("#lang racket\n(displayln 'up)\n") == "up\n"
        with pytest.raises(ValueError, match="bogus"):
            Runtime()

    def test_cli_backend_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        from repro.tools.runner import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        prog = tmp_path / "p.rkt"
        prog.write_text("#lang racket\n(displayln 'cli)\n")
        # explicit flag wins: runs despite the broken env
        assert main(["--backend", "pyc", str(prog)]) == 0
        assert capsys.readouterr().out == "cli\n"
        # without the flag the env is consulted and rejected cleanly
        assert main([str(prog)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_doctor_reports_old_format_artifacts(self, tmp_path):
        """A structurally intact artifact from an earlier cache format is
        reported as old, not quarantined (see satellite: version-skew)."""
        import hashlib

        with pyc_cached_runtime(tmp_path, m=SOURCE) as rt:
            assert rt.run("m") == EXPECTED
            payload = b"stale pickle bytes from an earlier release"
            stale_paths = []
            for digit, magic in (("0", b"REPROZO\x02"), ("1", b"REPROZO\x03"),
                                 ("2", b"REPROZO\x04")):
                old = magic + hashlib.sha256(payload).digest() + payload
                stale_path = os.path.join(rt.cache.dir, digit * 64 + ".zo")
                with open(stale_path, "wb") as f:
                    f.write(old)
                stale_paths.append(stale_path)
            report = rt.cache.doctor()
            assert [name for name, _ in report["old_version"]] == [
                "0" * 64 + ".zo", "1" * 64 + ".zo", "2" * 64 + ".zo"
            ]
            assert report["quarantined"] == []
            for stale_path in stale_paths:
                assert os.path.exists(stale_path)  # reported, never deleted
