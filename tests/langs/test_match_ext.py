"""Tests for ``#lang racket/match-ext``: extensible pattern matching.

Covers: the inherited pattern language still works; ``define-match-expander``
rewrites patterns (including use-before-definition via the dialect hoist,
shadowing built-in pattern heads, and cross-module ``provide``/``require``);
decision-tree compilation preserves first-match semantics and reports the
sharing on the observe bus; exhaustiveness near-misses reach the coach;
expanders survive the artifact cache; and everything behaves identically on
both backends.
"""

from __future__ import annotations

import pytest

from repro import Runtime
from repro.errors import RuntimeReproError, SyntaxExpansionError

BACKENDS = ("interp", "pyc")

BASICS = """#lang racket/match-ext
(define (classify v)
  (match v
    [(list 1 x) (list 'one x)]
    [(list a b) (+ a b)]
    [(cons h _) h]
    [(vector a b) (* a b)]
    ["str" 'string]
    [7 'seven]
    [(? symbol?) 'symbol]
    [_ 'other]))
(displayln (classify (list 1 41)))
(displayln (classify (list 20 22)))
(displayln (classify (cons 9 10)))
(displayln (classify (vector 6 7)))
(displayln (classify "str"))
(displayln (classify 7))
(displayln (classify 'sym))
(displayln (classify 3.5))
"""

POINT = """#lang racket/match-ext
(define-match-expander point
  (syntax-rules () [(_ x y) (list 'point x y)]))
(define (norm-sq p)
  (match p
    [(point x y) (+ (* x x) (* y y))]
    [_ 'not-a-point]))
(displayln (norm-sq (list 'point 3 4)))
(displayln (norm-sq 17))
"""


def run(source, path="<m>", **kwargs):
    with Runtime(cache=False, **kwargs) as rt:
        return rt.run_source(source, path)


class TestBasePatterns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inherited_pattern_language(self, backend):
        out = run(BASICS, backend=backend)
        assert out == "(one 41)\n42\n9\n42\nstring\nseven\nsymbol\nother\n"

    def test_match_failure_still_raises(self):
        src = "#lang racket/match-ext\n(match 5 [(list a) a])\n"
        with pytest.raises(RuntimeReproError, match="no matching clause"):
            run(src)


class TestExpanders:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_define_match_expander(self, backend):
        out = run(POINT, backend=backend)
        assert out == "25\nnot-a-point\n"

    def test_use_before_definition_is_hoisted(self):
        src = """#lang racket/match-ext
(define (tag v)
  (match v
    [(pair2 a b) (list b a)]
    [_ 'no]))
(displayln (tag (list 'x 'y)))
(define-match-expander pair2
  (syntax-rules () [(_ a b) (list a b)]))
"""
        assert run(src) == "(y x)\n"

    def test_expander_can_shadow_builtin_pattern(self):
        # `?` is a pattern-only keyword (not a language import), so a user
        # expander of that name takes over predicate patterns entirely
        src = """#lang racket/match-ext
(define-match-expander ?
  (syntax-rules () [(_ a b) (list a b)]))
(displayln (match (list 1 2) [(? a b) (+ a b)] [_ 'no]))
"""
        assert run(src) == "3\n"

    def test_expanders_nest_and_chain(self):
        # an expander may rewrite to a pattern using another expander
        src = """#lang racket/match-ext
(define-match-expander two (syntax-rules () [(_ p) (list p p)]))
(define-match-expander twotwo (syntax-rules () [(_ p) (two (two p))]))
(displayln (match (list (list 1 1) (list 1 1)) [(twotwo x) x] [_ 'no]))
"""
        assert run(src) == "1\n"

    def test_expander_in_expression_position_is_an_error(self):
        src = """#lang racket/match-ext
(define-match-expander pt (syntax-rules () [(_ a) (list a)]))
(pt 1)
"""
        with pytest.raises(SyntaxExpansionError) as exc_info:
            run(src)
        assert "match pattern" in str(exc_info.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expander_provided_across_modules(self, backend):
        lib = """#lang racket/match-ext
(define-match-expander posn
  (syntax-rules () [(_ x y) (cons x y)]))
(provide posn)
"""
        client = """#lang racket/match-ext
(require "lib")
(displayln (match (cons 3 4) [(posn x y) (+ x y)]))
"""
        with Runtime(cache=False, backend=backend) as rt:
            rt.register_module("lib", lib)
            assert rt.run_source(client, "client") == "7\n"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expander_survives_the_artifact_cache(self, tmp_path, backend):
        cache = str(tmp_path / "cache")
        lib = """#lang racket/match-ext
(define-match-expander posn
  (syntax-rules () [(_ x y) (cons x y)]))
(provide posn)
"""
        client = """#lang racket/match-ext
(require "lib")
(displayln (match (cons 20 22) [(posn x y) (+ x y)]))
"""
        with Runtime(cache_dir=cache, backend=backend) as rt:
            rt.register_module("lib", lib)
            rt.register_module("client", client)
            assert rt.run("client") == "42\n"
            assert rt.stats.expansion_steps > 0
        with Runtime(cache_dir=cache, backend=backend) as rt2:
            rt2.register_module("lib", lib)
            rt2.register_module("client", client)
            # warm: the expander is rebuilt from the cached artifact's
            # define-syntaxes replay — no source pass, no codegen
            assert rt2.run("client") == "42\n"
            assert rt2.stats.expansion_steps == 0
            assert rt2.stats.pyc_codegens == 0


class TestDecisionTrees:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adjacent_pair_clauses_share_a_root_test(self, backend):
        src = """#lang racket/match-ext
(define (dispatch v)
  (match v
    [(list 'add a b) (+ a b)]
    [(list 'mul a b) (* a b)]
    [(cons 'neg r) (- 0 (car r))]
    [_ 'unknown]))
(displayln (dispatch (list 'add 20 22)))
(displayln (dispatch (list 'mul 6 7)))
(displayln (dispatch (list 'neg 5)))
(displayln (dispatch 9))
"""
        assert run(src, backend=backend) == "42\n42\n-5\nunknown\n"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vector_run_shares_length_test(self, backend):
        src = """#lang racket/match-ext
(define (f v)
  (match v
    [(vector 0 y) y]
    [(vector x y) (+ x y)]
    [(vector x y z) (* x y z)]
    [_ 'no]))
(displayln (f (vector 0 9)))
(displayln (f (vector 1 2)))
(displayln (f (vector 2 3 4)))
(displayln (f (vector 1)))
"""
        assert run(src, backend=backend) == "9\n3\n24\nno\n"

    def test_first_match_order_is_preserved(self):
        src = """#lang racket/match-ext
(displayln (match (list 1 2)
  [(list a b) 'first]
  [(list 1 b) 'second]))
"""
        assert run(src) == "first\n"

    def test_run_falls_through_to_later_clauses(self):
        # every clause in the shared run fails; control reaches the
        # non-run clause after it
        src = """#lang racket/match-ext
(displayln (match (list 1 2 3)
  [(list a) 'one]
  [(list a b) 'two]
  ["s" 'string]
  [_ 'fallthrough]))
"""
        assert run(src) == "fallthrough\n"

    def test_dtree_sharing_is_reported_to_the_coach(self):
        src = """#lang racket/match-ext
(displayln (match (list 1 2)
  [(list a) a]
  [(list a b) (+ a b)]
  [(cons h _) h]
  [_ 'no]))
"""
        with Runtime(trace=True, cache=False) as rt:
            rt.run_source(src, "<dtree>")
            fired = [
                e for e in rt.tracer.events
                if e.category == "coach" and e.name == "fired"
                and e.attrs.get("rule") == "match-dtree"
            ]
            assert fired, "shared root tests must fire a match-dtree event"
            assert "3 clauses" in fired[0].attrs["replacement"]


class TestExhaustivenessCoach:
    def test_missing_catch_all_is_a_near_miss(self):
        src = """#lang racket/match-ext
(define (f v) (match v [(list a) a] [(list a b) b]))
(displayln (f (list 1)))
"""
        with Runtime(trace=True, cache=False) as rt:
            rt.run_source(src, "<nm>")
            misses = [
                e for e in rt.tracer.events
                if e.category == "coach" and e.name == "near-miss"
                and e.attrs.get("rule") == "match-exhaustive"
            ]
            assert misses
            assert "no catch-all" in misses[0].attrs["reason"]

    def test_unreachable_clause_is_a_near_miss(self):
        src = """#lang racket/match-ext
(displayln (match 1 [x 'caught] [_ 'dead]))
"""
        with Runtime(trace=True, cache=False) as rt:
            rt.run_source(src, "<dead>")
            misses = [
                e for e in rt.tracer.events
                if e.category == "coach" and e.name == "near-miss"
                and e.attrs.get("rule") == "match-exhaustive"
            ]
            assert misses
            assert "unreachable" in misses[0].attrs["reason"]

    def test_exhaustive_match_is_quiet(self):
        src = "#lang racket/match-ext\n(displayln (match 1 [x x]))\n"
        with Runtime(trace=True, cache=False) as rt:
            rt.run_source(src, "<quiet>")
            misses = [
                e for e in rt.tracer.events
                if e.category == "coach" and e.name == "near-miss"
                and e.attrs.get("rule") == "match-exhaustive"
            ]
            assert misses == []


class TestDifferential:
    @pytest.mark.parametrize("source", [BASICS, POINT])
    def test_backends_agree(self, source):
        assert run(source, backend="interp") == run(source, backend="pyc")
