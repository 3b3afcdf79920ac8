"""The benchmark's inputs: frozen program sources and generated modules.

``programs.json`` is a snapshot of the figure 6-9 programs (untyped and
typed sources plus each program's hand-written expected output) and of the
``match-ext`` and ``infix`` programs, taken so that the benchmark's inputs
stay identical on every commit it compares, whatever later happens to the
repository's own benchmark scripts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Program:
    """One figure program: both sources and the expected output."""

    name: str
    figure: str
    untyped: str
    typed: str
    expected: str

    def source(self, config: str) -> str:
        if config == "untyped":
            return "#lang racket\n" + self.untyped
        return "#lang typed\n" + self.typed


@dataclass(frozen=True)
class Module:
    """A complete ``#lang`` module and the output it must print."""

    name: str
    source: str
    expected: str


def _load() -> dict:
    with open(os.path.join(HERE, "programs.json"), encoding="utf-8") as f:
        return json.load(f)


_DATA = _load()

FIGURE_PROGRAMS: dict[str, Program] = {
    p["name"]: Program(**p) for p in _DATA["figures"]
}
LANG_MODULES: dict[str, Module] = {m["name"]: Module(**m) for m in _DATA["langs"]}


def big_module(n_defs: int = 400) -> Module:
    """The generated many-definition module of the cache benchmark."""
    defs = "\n".join(f"(define (f{i} x) (+ x {i}))" for i in range(n_defs))
    return Module(
        f"defs{n_defs}",
        f"#lang racket\n{defs}\n(displayln (f{n_defs - 1} 1))\n",
        f"{n_defs}\n",
    )


# -- the service's request sources ------------------------------------------

def _poly_total(n: int) -> int:
    return sum(3 * i * i + 2 * i + 1 + i * i for i in range(1, n + 1))


def _match_total(n: int) -> int:
    return sum(i * i + 13 * i + 1 for i in range(1, n + 1))


#: sources stored in the artifact cache during set-up, then requested warm
SERVE_WARM: tuple[Module, ...] = (
    Module(
        "sum-loop",
        "#lang racket\n"
        "(define (sum-to n acc) (if (= n 0) acc (sum-to (- n 1) (+ acc n))))\n"
        "(displayln (sum-to 3000 0))\n",
        "4501500\n",
    ),
    Module(
        "list-walk",
        "#lang racket\n"
        "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))\n"
        "(define (total l) (if (null? l) 0 (+ (car l) (total (cdr l)))))\n"
        "(displayln (total (build 500)))\n",
        "125250\n",
    ),
    Module(
        "vector-fill",
        "#lang racket\n"
        "(define v (make-vector 200 0))\n"
        "(define (fill! i)\n"
        "  (when (< i 200) (vector-set! v i (* i i)) (fill! (+ i 1))))\n"
        "(fill! 0)\n"
        "(displayln (vector-ref v 199))\n",
        "39601\n",
    ),
    Module(
        "typed-fib",
        "#lang typed\n"
        "(: fib (Integer -> Integer))\n"
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))\n"
        "(displayln (fib 15))\n",
        "610\n",
    ),
    Module(
        "infix-poly",
        "#lang racket/infix\n"
        "(define-op ^ 8 right expt)\n"
        "(define (poly x) {3 * x * x + 2 * x + 1})\n"
        "(define (loop i acc)\n"
        "  (if {i = 0} acc (loop {i - 1} {acc + (poly i) + {i ^ 2}})))\n"
        "(displayln (loop 200 0))\n",
        f"{_poly_total(200)}\n",
    ),
    Module(
        "match-step",
        LANG_MODULES["match-ext"].source.replace("(loop 1500 0)", "(loop 200 0)"),
        f"{_match_total(200)}\n",
    ),
)

#: run under ``{"budget": {"steps": 5}}``; must come back as G001
SERVE_BUDGET = Module(
    "budget-spin",
    "#lang racket\n"
    "(define (spin n) (if (= n 0) 0 (spin (- n 1))))\n"
    "(displayln (spin 100))\n",
    "G001",
)


def serve_cold(constant: int) -> Module:
    """A never-seen source; every constant gives the same shape of module,
    so each one costs the same expansion and code generation."""
    return Module(
        "cold",
        "#lang racket\n"
        f"(define (cold-f x) (+ (* x x) {constant}))\n"
        "(define (cold-loop i acc)\n"
        "  (if (= i 0) acc (cold-loop (- i 1) (+ acc (cold-f i)))))\n"
        "(displayln (cold-loop 100 0))\n",
        f"{338350 + 100 * constant}\n",
    )
