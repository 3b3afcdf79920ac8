"""Differential property: pyc's open-coded arithmetic is the interpreter's.

The pyc backend open-codes generic arithmetic on ints and flonums behind a
run-time representation test (DESIGN.md §9) and falls back to the
primitive for everything else. The interp backend, which always calls the
primitive, is the oracle: for a fixed seeded sample of operations over
edge-value operands, both backends must print the same output, raise the
same error (type, code, message), and charge the same
``generic_dispatches`` and ``unsafe_ops``.

Every operand reaches the operation either as a constant in the source
(decided at compile time) or as a function parameter (so the emitted
run-time type test, divisor test or radicand test actually runs).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import Runtime

BINARY = ("+", "-", "*", "/", "<", "<=", ">", ">=", "=")
UNARY = ("add1", "sub1", "zero?", "sqrt", "-")
FOLDED = ("+", "-", "*")

OPERANDS = (
    "0", "1", "-1", str(2**62), str(10**400),
    "0.0", "-0.0", "+inf.0", "-inf.0", "+nan.0", "1e308", "5e-324",
    "1/3", "1+2i", "#t", '"s"',
)

#: pairs every binary operation runs var/var: zero divisors, signed
#: zeros and NaN, where a fast path is easiest to get subtly wrong
PINNED_PAIRS = (
    ("1e308", "0.0"), ("1e308", "-0.0"), ("-0.0", "0.0"),
    ("0.0", "-0.0"), ("-0.0", "-0.0"), ("+nan.0", "0.0"),
)

#: operations and operands where the numeric tower used to escape with a
#: raw Python exception (Racket answers with a value or a contract error);
#: every operand runs both as a parameter and as a constant
EDGE_UNARY = ("floor", "ceiling", "truncate", "round", "sin", "cos", "tan",
              "exp", "sqrt", "inexact->exact")
EDGE_OPERANDS = ("+inf.0", "-inf.0", "+nan.0", "1000", str(10**400 + 1))
EDGE_BINARY = (("expt", "1.5", "100000"), ("expt", "-1.5", "100001"),
               ("expt", "0.0", "-1"), ("expt", "0", "-1.0"),
               ("/", "1.0", "0.0+0.0i"))

SEED = 20111
PAIRS_PER_FORM = 40
TRIPLES_PER_FORM = 15

COUNTERS = ("generic_dispatches", "unsafe_ops")


def _case(shape: list[str], op: str, operands: tuple[str, ...]) -> str:
    """A module applying ``op`` to ``operands``: each ``"v"`` position of
    ``shape`` is a parameter of ``f`` (passed the operand at the call),
    each ``"c"`` position is the operand itself, a constant of the body."""
    params = [f"a{i}" for i, kind in enumerate(shape) if kind == "v"]
    actuals = [o for kind, o in zip(shape, operands) if kind == "v"]
    body = [f"a{i}" if kind == "v" else o
            for i, (kind, o) in enumerate(zip(shape, operands))]
    return (
        "#lang racket\n"
        f"(define (f {' '.join(params)}) ({op} {' '.join(body)}))\n"
        f"(displayln (f {' '.join(actuals)}))\n"
    )


def _cases() -> dict[str, list[str]]:
    """The fixed sample, grouped per operation."""
    rng = random.Random(SEED)
    groups: dict[str, list[str]] = {}
    pairs = list(itertools.product(OPERANDS, repeat=2))
    for op in BINARY:
        cases = [_case(["v", "v"], op, p) for p in PINNED_PAIRS]
        for shape in (["v", "v"], ["c", "v"], ["v", "c"]):
            cases += [_case(shape, op, p)
                      for p in rng.sample(pairs, PAIRS_PER_FORM)]
        groups[op] = cases
    for op in UNARY:
        groups[f"unary {op}"] = [
            _case([kind], op, (o,)) for kind in ("v", "c") for o in OPERANDS
        ]
    groups["edge values"] = [
        _case([kind], op, (o,))
        for op in EDGE_UNARY for kind in ("v", "c") for o in EDGE_OPERANDS
    ] + [
        _case(shape, op, (x, y))
        for op, x, y in EDGE_BINARY
        for shape in (["v", "v"], ["c", "v"], ["v", "c"])
    ]
    triples = list(itertools.product(OPERANDS, repeat=3))
    for op in FOLDED:
        groups[f"3-operand {op}"] = [
            _case(shape, op, t)
            for shape in (["v", "v", "v"], ["v", "c", "v"], ["c", "v", "v"],
                          ["v", "v", "c"])
            for t in rng.sample(triples, TRIPLES_PER_FORM)
        ]
    return groups


CASES = _cases()


@pytest.fixture(scope="module")
def runtimes():
    with Runtime(backend="interp") as interp, Runtime(backend="pyc") as pyc:
        yield interp, pyc


def _observe(rt: Runtime, source: str, path: str) -> tuple:
    before = rt.stats.snapshot()
    try:
        output, error = rt.run_source(source, path=path), None
    except Exception as err:  # raw Python errors must agree too
        output = None
        error = (type(err).__name__, getattr(err, "code", None), str(err))
    finally:
        rt.registry.unregister(path)
    after = rt.stats.snapshot()
    return output, error, {c: after[c] - before[c] for c in COUNTERS}


@pytest.mark.parametrize("group", sorted(CASES))
def test_pyc_arithmetic_agrees_with_interp(runtimes, group):
    interp, pyc = runtimes
    mismatches = []
    for i, source in enumerate(CASES[group]):
        path = f"<arith {group} {i}>"
        expected = _observe(interp, source, path)
        got = _observe(pyc, source, path)
        if got != expected:
            mismatches.append((source.splitlines()[1:], expected, got))
    assert not mismatches, "\n".join(
        f"{src}\n  interp: {exp}\n  pyc:    {got}"
        for src, exp, got in mismatches[:10]
    )


def test_sample_reaches_every_fast_path_edge():
    """The sample is fixed; pin that it keeps the cases the fast paths
    must get right: a zero divisor, a signed zero, NaN, a huge int."""
    text = "\n".join(s for cases in CASES.values() for s in cases)
    assert "(f 1e308 -0.0)" in text
    assert "(f -0.0)" in text
    assert "(f +nan.0 0.0)" in text
    assert str(10**400) in text
    assert "(inexact->exact +inf.0)" in text
    assert sum(len(c) for c in CASES.values()) > 1000


def test_edge_values_never_raise_raw_python_errors(runtimes):
    """Each edge case answers with a value or a coded error (a ReproError
    carries a code; a raw Python exception does not)."""
    interp, _ = runtimes
    raw = []
    for i, source in enumerate(CASES["edge values"]):
        _, error, _ = _observe(interp, source, f"<edge {i}>")
        if error is not None and error[1] is None:
            raw.append((source.splitlines()[1], error))
    assert not raw, raw
