"""End-to-end properties of the evaluator and the optimizer.

1. Randomly generated arithmetic/let/if expressions evaluate to the same
   value as a direct Python reference evaluation.
2. Randomly generated *typed float* programs produce identical output with
   the type-driven optimizer on and off — the semantics-preservation claim
   behind fig. 5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime

# ---------------------------------------------------------------------------
# a tiny expression AST generated by hypothesis, rendered both to the object
# language and to Python
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Union[int, float]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * min max
    left: Any
    right: Any


@dataclass(frozen=True)
class IfPos:
    test: Any
    then: Any
    orelse: Any


@dataclass(frozen=True)
class Let:
    name: str
    rhs: Any
    body: Any


_VARS = ["va", "vb", "vc"]


def exprs(var_depth: int = 0):
    leaves = st.one_of(
        st.integers(-50, 50).map(Lit),
        *( [st.sampled_from(_VARS[:var_depth]).map(Var)] if var_depth else [] ),
    )
    if var_depth >= len(_VARS):
        recurse = leaves
    else:
        recurse = st.deferred(lambda: exprs(var_depth + 1))

    def extend(children):
        options = [
            st.builds(BinOp, st.sampled_from("+-*"), children, children),
            st.builds(BinOp, st.sampled_from(["min", "max"]), children, children),
            st.builds(IfPos, children, children, children),
        ]
        if var_depth < len(_VARS):
            options.append(
                st.builds(
                    lambda rhs, body: Let(_VARS[var_depth], rhs, body),
                    children,
                    recurse,
                )
            )
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=10)


def to_scheme(e: Any) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        return f"({e.op} {to_scheme(e.left)} {to_scheme(e.right)})"
    if isinstance(e, IfPos):
        return (
            f"(if (< 0 {to_scheme(e.test)}) {to_scheme(e.then)} {to_scheme(e.orelse)})"
        )
    if isinstance(e, Let):
        return f"(let ([{e.name} {to_scheme(e.rhs)}]) {to_scheme(e.body)})"
    raise AssertionError(e)


def py_eval(e: Any, env: dict[str, Any]) -> Any:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, BinOp):
        a, b = py_eval(e.left, env), py_eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "min":
            result = a if a <= b else b
            return float(result) if isinstance(a, float) or isinstance(b, float) else result
        result = a if a >= b else b
        return float(result) if isinstance(a, float) or isinstance(b, float) else result
    if isinstance(e, IfPos):
        return py_eval(e.then, env) if 0 < py_eval(e.test, env) else py_eval(e.orelse, env)
    if isinstance(e, Let):
        return py_eval(e.body, {**env, e.name: py_eval(e.rhs, env)})
    raise AssertionError(e)


@pytest.fixture(scope="module")
def run_program():
    """Run ``#lang`` source in one Runtime shared by this module's examples.

    The Runtime is closed when the module's tests end: it registers a
    module per example, and an open Runtime keeps every one of their
    bindings alive for the rest of the session.
    """
    counter = itertools.count(1)
    with Runtime() as rt:
        yield lambda source: rt.run_source(source, path=f"<prop-{next(counter)}>")


@pytest.fixture(scope="module")
def run_unoptimized():
    """:func:`run_program` on a Runtime whose typed optimizer is off."""
    counter = itertools.count(1)
    with Runtime(optimizer_rules=frozenset()) as rt:
        yield lambda source: rt.run_source(source, path=f"<noopt-{next(counter)}>")


@given(exprs())
@settings(max_examples=120, deadline=None)
def test_racket_agrees_with_python_reference(run_program, e):
    expected = py_eval(e, {})
    out = run_program(f"#lang racket\n(displayln {to_scheme(e)})").strip()
    assert out == str(expected)


def _floatify(e: Any) -> Any:
    """Rewrite integer literals to floats for the typed-float variant."""
    if isinstance(e, Lit):
        return Lit(float(e.value))
    if isinstance(e, Var):
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, _floatify(e.left), _floatify(e.right))
    if isinstance(e, IfPos):
        return IfPos(_floatify(e.test), _floatify(e.then), _floatify(e.orelse))
    if isinstance(e, Let):
        return Let(e.name, _floatify(e.rhs), _floatify(e.body))
    raise AssertionError(e)


def scheme_float_literal(text: str) -> str:
    return text


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_optimizer_preserves_float_semantics(run_program, run_unoptimized, e):
    """fig. 5 safety: optimized typed programs = unoptimized typed programs."""
    fe = _floatify(e)
    program = (
        "#lang typed\n"
        f"(define result : Float {to_scheme(fe)})\n"
        "(displayln result)\n"
    )
    assert run_program(program) == run_unoptimized(program)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_typed_and_untyped_agree(run_program, e):
    """the typed language reuses the host's semantics exactly (§3)."""
    scheme = to_scheme(e)
    untyped = run_program(f"#lang racket\n(displayln {scheme})")
    typed = run_program(
        f"#lang typed\n(define result : Integer {scheme})\n(displayln result)"
    )
    assert untyped == typed
