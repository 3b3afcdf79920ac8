"""Differential property: calls with a known target change nothing.

Both backends call hoisted top-level functions and known local procedures
directly and make acyclic tail calls direct calls, on the one lower
analysis (DESIGN.md §5, §9); pyc also copies captures that nothing
assigns into the closures that make them. The oracle shares none of that:
interp with an empty analysis (``repro.core.backend.module_analysis``
patched to return ``ModuleAnalysis()``), which sends every application
through the trampoline and captures every binding by reference.

A fixed seeded sample of small modules is generated: top-level functions
and ``let``/``letrec`` procedures that call each other in tail and
non-tail positions, procedures that escape as values, ``set!`` locals and
procedures, closures made in loops, and calls that can run before a
later form defines their target. Each module runs on the oracle and on
both backends, ungoverned and under a ``max_depth`` budget, and all three
must print the same output, raise the same error (type, code, message
and, for a G-code, the step count at which it fired), and count the same
steps.
"""

from __future__ import annotations

import random

import pytest

from repro import ReproError, Runtime
from repro.core import backend as backend_mod
from repro.core.lower import ModuleAnalysis, module_analysis

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


def _observe_oracle(source: str, budget) -> tuple:
    """``_observe`` on interp with every application on the trampoline."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend_mod, "module_analysis",
                   lambda compiled: ModuleAnalysis())
        return _observe("interp", source, budget)


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
def test_pyc_calls_agree_with_interp(budget):
    """pyc, interp and the oracle agree on every module."""
    mismatches = []
    for source in MODULE_SOURCES:
        expected = _observe_oracle(source, budget)
        interp = _observe("interp", source, budget)
        pyc = _observe("pyc", source, budget)
        if not expected == interp == pyc:
            mismatches.append((source, expected, interp, pyc))
    assert not mismatches, "\n".join(
        f"{src}  oracle: {exp}\n  interp: {got}\n  pyc:    {pyc}"
        for src, exp, got, pyc in mismatches[:5]
    )


def test_sample_reaches_every_outcome():
    """The sample is fixed; pin that it keeps runs that finish, runs a
    depth budget ends, and calls that run before their target's form."""
    outcomes = [_observe_oracle(src, BUDGETS[1])[1] for src in MODULE_SOURCES]
    codes = {None if e is None else e[1] for e in outcomes}
    assert {None, "G003"} <= codes
    assert any(e is not None and "undefined" in e[2]
               for e in (_observe_oracle(src, None)[1]
                         for src in MODULE_SOURCES))


def test_sample_has_direct_calls():
    """The property is not vacuous: every module calls a hoisted function
    directly (its top-level forms do), and most make a direct tail call or
    call a known procedure."""
    direct_tail = known = 0
    with Runtime(backend="interp", cache=False) as rt:
        for i, source in enumerate(MODULE_SOURCES):
            path = f"<calls-{i}>"
            rt.register_module(path, source)
            rt.compile(path)
            analysis = module_analysis(rt.registry.compiled[path])
            assert analysis.hoisted
            direct_tail += bool(analysis.direct_tail)
            known += bool(analysis.known)
    print(f"of {MODULES} modules, {direct_tail} make a direct tail call "
          f"and {known} have a known procedure")
    assert direct_tail >= MODULES // 2 and known >= MODULES // 2
