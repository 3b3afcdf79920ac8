"""Tests for the full ``typed`` language: §4.4's scaled checker."""

from __future__ import annotations

import pytest

from repro.errors import SyntaxExpansionError, TypeCheckError


class TestDeclarations:
    def test_colon_declaration(self, run):
        # §3.2's style: (: f (Number -> Number)) (define (f z) ...)
        assert run(
            """#lang typed
(: f (Number -> Number))
(define (f z) (sqrt (* 2.0 2.0)))
(displayln (f 7))"""
        ) == "2.0\n"

    def test_colon_with_extra_colon(self, run):
        # the paper also writes (: add-5 : Integer -> Integer)
        assert run(
            """#lang typed
(: add-5 : (Integer -> Integer))
(define (add-5 x) (+ x 5))
(displayln (add-5 7))"""
        ) == "12\n"

    def test_declared_function_body_checked(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(: f (Integer -> Integer))
(define (f x) "not an integer")"""
            )

    def test_declared_parameters_typed_in_body(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(: f (String -> String))
(define (f s) (+ s 1))"""
            )


class TestMutualRecursion:
    def test_two_pass_collection(self, run):
        # §4.4: first pass collects definitions with their types
        assert run(
            """#lang typed
(: is-even? (Integer -> Boolean))
(define (is-even? n) (if (= n 0) #t (is-odd? (- n 1))))
(: is-odd? (Integer -> Boolean))
(define (is-odd? n) (if (= n 0) #f (is-even? (- n 1))))
(displayln (is-even? 10))"""
        ) == "#t\n"

    def test_forward_reference_with_annotations(self, run):
        assert run(
            """#lang typed
(define (f [n : Integer]) : Integer (g (+ n 1)))
(define (g [n : Integer]) : Integer (* n 2))
(displayln (f 4))"""
        ) == "10\n"

    def test_self_recursion(self, run):
        assert run(
            """#lang typed
(define (fact [n : Integer]) : Integer
  (if (= n 0) 1 (* n (fact (- n 1)))))
(displayln (fact 10))"""
        ) == "3628800\n"


class TestInference:
    def test_unannotated_define_infers(self, run):
        assert run(
            "#lang typed\n(define x (+ 1 2))\n(define y : Integer x)\n(displayln y)"
        ) == "3\n"

    def test_if_branches_join_to_union(self, run):
        assert run(
            """#lang typed
(define (f [b : Boolean]) : (U Integer String) (if b 1 "one"))
(displayln (f #t))"""
        ) == "1\n"

    def test_truthiness_tests_allowed(self, run):
        # unlike simple-type, the full checker allows any test expression
        assert run(
            "#lang typed\n(displayln (if (member 2 (list 1 2)) 'found 'missing))"
        ) == "found\n"


class TestContainerTypes:
    def test_listof(self, run):
        assert run(
            """#lang typed
(define xs : (Listof Integer) (list 1 2 3))
(define total : Integer (foldl + 0 xs))
(displayln total)"""
        ) == "6\n"

    def test_listof_element_type_checked(self, run):
        with pytest.raises(TypeCheckError):
            run('#lang typed\n(define xs : (Listof Integer) (list 1 "two"))')

    def test_null_is_listof_anything(self, run):
        assert run(
            "#lang typed\n(define xs : (Listof Float) '())\n(displayln xs)"
        ) == "()\n"

    def test_pairof(self, run):
        assert run(
            """#lang typed
(define p : (Pairof Integer String) (cons 1 "one"))
(displayln (car p))
(displayln (cdr p))"""
        ) == "1\none\n"

    def test_fixed_length_list_type(self, run):
        assert run(
            """#lang typed
(define p : (List Integer String Boolean) (list 1 "two" #t))
(displayln (car (cdr p)))"""
        ) == "two\n"

    def test_vectorof(self, run):
        assert run(
            """#lang typed
(define v : (Vectorof Integer) (vector 1 2 3))
(vector-set! v 0 99)
(displayln (vector-ref v 0))"""
        ) == "99\n"

    def test_vector_store_type_checked(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(define v : (Vectorof Integer) (vector 1))
(vector-set! v 0 "oops")"""
            )

    def test_vectors_invariant(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(define v : (Vectorof Integer) (vector 1))
(define w : (Vectorof Number) v)"""
            )

    def test_map_over_list(self, run):
        assert run(
            """#lang typed
(define (double [x : Integer]) : Integer (* 2 x))
(define ys : (Listof Integer) (map double (list 1 2 3)))
(displayln ys)"""
        ) == "(2 4 6)\n"

    def test_map_domain_mismatch(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(define (f [x : String]) : String x)
(map f (list 1 2))"""
            )

    def test_car_requires_list_shape(self, run):
        with pytest.raises(TypeCheckError):
            run("#lang typed\n(car 42)")


class TestNumericTower:
    def test_variadic_arithmetic(self, run):
        assert run(
            """#lang typed
(define a : Integer (+ 1 2 3 4))
(define b : Float (* 1.0 2.0 3.0))
(displayln (+ a 0))
(displayln b)"""
        ) == "10\n6.0\n"

    def test_mixed_arithmetic_is_number(self, run):
        assert run(
            "#lang typed\n(define n : Number (+ 1 2.5))\n(displayln n)"
        ) == "3.5\n"

    def test_division_of_integers_is_real(self, run):
        assert run(
            "#lang typed\n(define r : Real (/ 1 3))\n(displayln r)"
        ) == "1/3\n"

    def test_float_complex(self, run):
        assert run(
            """#lang typed
(define z : Float-Complex (* 2.0+1.0i 1.0-1.0i))
(define m : Float (magnitude z))
(displayln z)
(displayln (real-part z))"""
        ) == "3.0-1.0i\n3.0\n"

    def test_comparison_rejects_complex(self, run):
        with pytest.raises(TypeCheckError):
            run("#lang typed\n(< 1.0+2.0i 3)")

    def test_quoted_list_literal_typed(self, run):
        assert run(
            """#lang typed
(define xs : (Listof Integer) '(1 2 3))
(displayln (length xs))"""
        ) == "3\n"

    def test_error_has_bottom_type(self, run):
        assert run(
            """#lang typed
(define (safe-div [a : Integer] [b : Integer]) : Integer
  (if (= b 0) (error "div0") (quotient a b)))
(displayln (safe-div 7 2))"""
        ) == "3\n"


class TestAnn:
    def test_ann_upcast(self, run):
        assert run(
            "#lang typed\n(displayln (ann 1 Number))"
        ) == "1\n"

    def test_ann_failure(self, run):
        with pytest.raises(TypeCheckError, match="ascription"):
            run("#lang typed\n(ann 1.5 Integer)")


class TestErrors:
    def test_unsupported_rest_args(self, run):
        with pytest.raises((TypeCheckError, SyntaxExpansionError)):
            run("#lang typed\n(define (f . xs) xs)\n(displayln (f 1))")

    def test_unknown_type_name(self, run):
        with pytest.raises(TypeCheckError, match="unknown type"):
            run("#lang typed\n(define x : Bogus 1)")

    def test_case_arity_mismatch_reported(self, run):
        with pytest.raises(TypeCheckError, match="no matching case"):
            run("#lang typed\n(sqrt 1.0 2.0)")


class TestAnnotatedNamedLet:
    def test_typed_loop(self, run):
        assert run(
            """#lang typed
(displayln
  (let: loop : Integer ([i : Integer 0] [acc : Integer 0])
    (if (= i 5) acc (loop (+ i 1) (+ acc i)))))"""
        ) == "10\n"

    def test_body_checked_against_result(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(let: loop : Integer ([i : Integer 0])
  (if (= i 3) "done" (loop (+ i 1))))"""
            )

    def test_init_checked_against_parameter(self, run):
        with pytest.raises(TypeCheckError):
            run(
                """#lang typed
(let: loop : Integer ([i : Integer 0.5])
  i)"""
            )

    def test_loop_gets_optimized(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(displayln
  (let: go : Float ([i : Integer 0] [acc : Float 0.0])
    (if (= i 50) acc (go (+ i 1) (+ acc 1.0)))))""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.instantiate("m", rt.make_namespace())
        assert rt.stats.generic_dispatches == 0
        assert rt.stats.unsafe_ops > 0
