"""The pyc backend's open-coded generic arithmetic (DESIGN.md §9).

``tests/properties/test_prop_pyc_arith.py`` checks that open-coding never
changes what a program computes; these tests pin that the fast paths are
actually taken, so flonum code stops calling into the numeric tower, and
that operands keep their evaluation order.
"""

from __future__ import annotations

import pytest

from repro import Runtime
from repro.runtime.primitives import PRIMITIVES

FLOAT_LOOP = """#lang racket
(define (loop i x acc)
  (if (< i 50)
      (loop (add1 i) (* x 1.01)
            (+ acc (sqrt x) (/ x 3.0) (- x) (if (zero? x) 1.0 0.5)))
      acc))
(displayln (loop 0 2.0 0.0))
"""

OPEN_CODED = ("+", "-", "*", "/", "<", "add1", "zero?", "sqrt")


@pytest.fixture
def primitive_calls(monkeypatch):
    """Count calls of the open-coded primitives' implementations and
    two-operand entries; pyc binds them at link time, so only fallbacks
    reach the counters."""
    calls = dict.fromkeys(OPEN_CODED, 0)

    def counting(fn, name):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in OPEN_CODED:
        prim = PRIMITIVES[name]
        monkeypatch.setattr(prim, "fn", counting(prim.fn, name))
        if prim.binary is not None:
            monkeypatch.setattr(prim, "binary", counting(prim.binary, name))
    return calls


def test_flonum_arithmetic_takes_no_primitive_call(primitive_calls):
    with Runtime(backend="pyc") as rt:
        out = rt.run_source(FLOAT_LOOP)
        charged = rt.stats.snapshot()["generic_dispatches"]
    assert not any(primitive_calls.values()), primitive_calls
    # ... and charges exactly what the primitives charge
    with Runtime(backend="interp") as rt:
        assert rt.run_source(FLOAT_LOOP) == out
        assert rt.stats.snapshot()["generic_dispatches"] == charged


@pytest.mark.parametrize("source, expected", [
    # mixed int x float variables fall back to the primitive
    ("(define (f a b) (+ a b))\n(displayln (f 1 2.5))", "3.5\n"),
    # an exact quotient never takes the flonum path
    ("(define (f a b) (/ a b))\n(displayln (f 1 3))", "1/3\n"),
    # nor does a zero divisor or a negative radicand
    ("(define (f a b) (/ a b))\n(displayln (f -1.0 0.0))", "-inf.0\n"),
    ("(define (f a) (sqrt a))\n(displayln (f -4.0))", "0.0+2.0i\n"),
])
def test_fallbacks(primitive_calls, source, expected):
    with Runtime(backend="pyc") as rt:
        assert rt.run_source("#lang racket\n" + source + "\n") == expected
    assert sum(primitive_calls.values()) == 1


@pytest.mark.parametrize("backend", ["interp", "pyc"])
def test_operand_read_before_a_later_operand_sets_it(backend):
    source = """#lang racket
(define (h y)
  (let ([x y])
    (define (g) (set! x 10) 2)
    (+ x (g))))
(displayln (h 1))
"""
    with Runtime(backend=backend) as rt:
        assert rt.run_source(source) == "3\n"


@pytest.mark.parametrize("backend", ["interp", "pyc"])
def test_typed_flonum_division_by_zero(backend):
    source = """#lang typed
(: f (Float Float -> Float))
(define (f a b) (/ a b))
(displayln (list (f 1.0 0.0) (f 1.0 -0.0) (f 0.0 0.0) (f 3.0 2.0)))
"""
    with Runtime(backend=backend) as rt:
        out = rt.run_source(source)
        assert rt.stats.snapshot()["unsafe_ops"] == 4
    assert out == "(+inf.0 -inf.0 +nan.0 1.5)\n"


@pytest.mark.parametrize("source", [
    # a constant exact 0 divisor is decided at compile time: the site is
    # only the primitive's call, never the flonum path
    "(define (f a) (/ a 0))\n(f 1.5)",
    # a variable one fails the run-time representation test
    "(define (f a b) (/ a b))\n(f 1.5 0)",
])
def test_exact_zero_divisor_calls_the_primitive(primitive_calls, source):
    from repro.errors import WrongTypeError

    with Runtime(backend="pyc") as rt:
        with pytest.raises(WrongTypeError, match="non-zero number"):
            rt.run_source("#lang racket\n" + source + "\n")
    assert primitive_calls["/"] == 1
