"""Tests for occurrence typing (typed/occurrence.py)."""

from __future__ import annotations

import pytest

from repro.errors import TypeCheckError


class TestListRefinement:
    def test_idiomatic_list_recursion(self, run):
        assert run(
            """#lang typed
(: sum ((Listof Integer) -> Integer))
(define (sum l)
  (if (null? l) 0 (+ (car l) (sum (cdr l)))))
(displayln (sum (list 1 2 3 4 5)))"""
        ) == "15\n"

    def test_pair_predicate(self, run):
        assert run(
            """#lang typed
(: len ((Listof String) -> Integer))
(define (len l)
  (if (pair? l) (+ 1 (len (cdr l))) 0))
(displayln (len (list "a" "b")))"""
        ) == "2\n"

    def test_not_composition(self, run):
        assert run(
            """#lang typed
(: len ((Listof Integer) -> Integer))
(define (len l)
  (if (not (null? l)) (+ 1 (len (cdr l))) 0))
(displayln (len (list 9 8 7)))"""
        ) == "3\n"

    def test_refined_access_drops_tag_checks(self, rt):
        """§7.2: the checker's proof that `l` is a pair in the else branch
        lets the optimizer emit unsafe-car/-cdr there."""
        rt.register_module(
            "m",
            """#lang typed
(: sum ((Listof Integer) -> Integer))
(define (sum l)
  (if (null? l) 0 (+ (car l) (sum (cdr l)))))
(displayln (sum (list 1 2 3)))""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.instantiate("m", rt.make_namespace())
        assert rt.stats.tag_checks == 0
        assert rt.stats.unsafe_ops > 0

    def test_unrefined_access_keeps_tag_checks(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define xs : (Listof Integer) (list 1 2))
(displayln (car xs))""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.instantiate("m", rt.make_namespace())
        assert rt.stats.tag_checks >= 1


class TestBaseTypeRefinement:
    def test_union_split_by_string_predicate(self, run):
        assert run(
            """#lang typed
(: describe ((U Integer String) -> Integer))
(define (describe x)
  (if (string? x) (string-length x) (+ x 1)))
(displayln (describe "hello"))
(displayln (describe 41))"""
        ) == "5\n42\n"

    def test_flonum_refinement(self, run):
        assert run(
            """#lang typed
(: to-float ((U Integer Float) -> Float))
(define (to-float x)
  (if (flonum? x) x (exact->inexact x)))
(displayln (to-float 3))
(displayln (to-float 2.5))"""
        ) == "3.0\n2.5\n"

    def test_without_refinement_union_use_rejected(self, run):
        # using the union directly where Integer is demanded must fail
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(: f ((U Integer String) -> Integer))
(define (f x) (+ x 1))"""
            )

    def test_negative_refinement(self, run):
        assert run(
            """#lang typed
(: f ((U Integer String) -> Integer))
(define (f x)
  (if (not (string? x)) (+ x 1) 0))
(displayln (f 10))
(displayln (f "s"))"""
        ) == "11\n0\n"


class TestNoRefinementCases:
    def test_complex_test_expression_is_fine(self, run):
        # non-predicate tests still typecheck (just without refinement)
        assert run(
            """#lang typed
(: f (Integer -> Integer))
(define (f x) (if (< x 0) 0 x))
(displayln (f -5))"""
        ) == "0\n"

    def test_predicate_on_non_variable_no_refinement(self, run):
        assert run(
            """#lang typed
(displayln (if (null? (list 1)) 'empty 'nonempty))"""
        ) == "nonempty\n"

    def test_refinement_scoped_to_branches(self, run):
        # after the if, the variable has its original type again
        assert run(
            """#lang typed
(: f ((Listof Integer) -> Integer))
(define (f l)
  (if (null? l) 0 1))
(: g ((Listof Integer) -> Integer))
(define (g l)
  (+ (f l) (length l)))
(displayln (g (list 1 2)))"""
        ) == "3\n"
