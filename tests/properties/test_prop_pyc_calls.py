"""Differential property: pyc's calls with a known target are interp's.

The pyc backend calls hoisted top-level functions and known local
procedures directly, makes acyclic tail calls direct Python calls, and
copies captures that nothing assigns into the closures that make them
(DESIGN.md §9). The interp backend, which sends every application through
the trampoline and captures every binding by reference, is the oracle.

A fixed seeded sample of small modules is generated: top-level functions
and ``let``/``letrec`` procedures that call each other in tail and
non-tail positions, procedures that escape as values, ``set!`` locals and
procedures, closures made in loops, and calls that can run before a
later form defines their target. Each module runs on both backends,
ungoverned and under a ``max_depth`` budget, and must print the same
output, raise the same error (type, code, message and, for a G-code, the
step count at which it fired), and count the same steps.
"""

from __future__ import annotations

import random

import pytest

from repro import ReproError, Runtime

SEED = 20110604
MODULES = 200

#: budgets each module runs under; 12 levels is less than most modules
#: nest, so many runs end in G003
BUDGETS = (None, {"max_depth": 12})


def _call(rng: random.Random, names: list[str], arg: str) -> str:
    """A call of a random top-level function, through one of the shapes
    the backends compile differently."""
    f = rng.choice(names)
    shape = rng.randrange(10)
    if shape == 0:  # a tail call
        return f"({f} {arg})"
    if shape == 1:  # a non-tail call
        return f"(+ 1 ({f} {arg}))"
    if shape == 2:  # a known procedure in tail position
        return f"(let ([k (lambda (m) ({f} m))]) (k {arg}))"
    if shape == 3:  # a known procedure called non-tail
        return f"(let ([k (lambda (m) (+ 2 ({f} m)))]) (- (k {arg}) 1))"
    if shape == 4:  # two letrec procedures, one calling the other
        return (f"(letrec ([a (lambda (m) (if (<= m 0) 0 (b (- m 1))))]"
                f" [b (lambda (m) ({f} m))]) (a {arg}))")
    if shape == 5:  # a procedure that escapes as a value
        return f"(call-with (lambda (m) ({f} m)) {arg})"
    if shape == 6:  # a set! local, read by a closure
        return (f"(let ([x {arg}]) (let ([get (lambda () x)])"
                f" (set! x (- x 0)) ({f} (get))))")
    if shape == 7:  # a set! procedure binding
        return (f"(let ([k (lambda (m) ({f} m))])"
                f" (set! k (lambda (m) (+ 3 ({f} m)))) (k {arg}))")
    if shape == 8:  # a chain of known procedures
        return (f"(let ([k1 (lambda (m) ({f} m))])"
                f" (let ([k2 (lambda (m) (k1 m))]) (k2 {arg})))")
    # closures made in a named-let loop, each keeping its own i
    return (f"(let loop ([i 3] [fs '()])"
            f" (if (= i 0) (+ (apply + (map (lambda (g) (g)) fs)) ({f} {arg}))"
            f" (loop (- i 1) (cons (lambda () i) fs))))")


def _module(rng: random.Random) -> str:
    """A module of 2-4 mutually calling functions. Every call passes a
    smaller argument than it received, so every run ends."""
    names = [f"f{i}" for i in range(rng.randint(2, 4))]
    lines = ["#lang racket", "(define (call-with p x) (p x))"]
    early = rng.random() < 0.3  # a call before every function is defined
    for i, name in enumerate(names):
        body = _call(rng, names, "(- n 1)")
        if rng.random() < 0.5:
            body = f"(if (even? n) {body} {_call(rng, names, '(- n 1)')})"
        lines.append(f"(define ({name} n) (if (<= n 0) {i} {body}))")
        if early and i == 0:
            lines.append(f"(displayln ({name} {rng.randint(1, 3)}))")
    for name in names:
        lines.append(f"(displayln ({name} {rng.randint(5, 30)}))")
    return "\n".join(lines) + "\n"


MODULE_SOURCES = [_module(random.Random(SEED + i)) for i in range(MODULES)]


def _observe(backend: str, source: str, budget) -> tuple:
    with Runtime(backend=backend, budget=budget, cache=False) as rt:
        try:
            output, error = rt.run_source(source, path="<calls>"), None
        except ReproError as err:
            output = None
            error = (type(err).__name__, getattr(err, "code", None), str(err),
                     getattr(err, "steps_consumed", None))
        return output, error, rt.stats.snapshot()["eval_steps"]


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
def test_pyc_calls_agree_with_interp(budget):
    mismatches = []
    for source in MODULE_SOURCES:
        expected = _observe("interp", source, budget)
        got = _observe("pyc", source, budget)
        if got != expected:
            mismatches.append((source, expected, got))
    assert not mismatches, "\n".join(
        f"{src}  interp: {exp}\n  pyc:    {got}"
        for src, exp, got in mismatches[:5]
    )


def test_sample_reaches_every_outcome():
    """The sample is fixed; pin that it keeps runs that finish, runs a
    depth budget ends, and calls that run before their target's form."""
    outcomes = [_observe("interp", src, BUDGETS[1])[1] for src in MODULE_SOURCES]
    codes = {None if e is None else e[1] for e in outcomes}
    assert {None, "G003"} <= codes
    assert any(e is not None and "undefined" in e[2]
               for e in (_observe("interp", src, None)[1]
                         for src in MODULE_SOURCES))
