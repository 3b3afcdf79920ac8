"""Tests for the numeric tower: generic and unsafe operations."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from repro import Runtime
from repro.errors import WrongTypeError
from repro.runtime import numerics as num
from repro.runtime.stats import Stats, use_stats


class TestGenericArithmetic:
    def test_integer_addition_stays_exact(self):
        assert num.generic_add(2, 3) == 5
        assert isinstance(num.generic_add(2, 3), int)

    def test_bignum_addition(self):
        assert num.generic_add(10**30, 1) == 10**30 + 1

    def test_float_contagion(self):
        result = num.generic_add(1, 2.5)
        assert result == 3.5 and isinstance(result, float)

    def test_fraction_plus_int_normalizes(self):
        result = num.generic_add(Fraction(1, 2), Fraction(1, 2))
        assert result == 1 and isinstance(result, int)

    def test_complex_contagion(self):
        result = num.generic_mul(2.0, complex(1.0, 1.0))
        assert result == complex(2.0, 2.0)

    def test_add_rejects_non_numbers(self):
        with pytest.raises(WrongTypeError):
            num.generic_add("a", 1)

    def test_add_rejects_booleans(self):
        with pytest.raises(WrongTypeError):
            num.generic_add(True, 1)

    def test_counters_increment(self):
        with use_stats(Stats()) as s:
            num.generic_add(1, 2)
        assert s.generic_dispatches == 1


class TestDivision:
    def test_exact_division_produces_rational(self):
        assert num.generic_div(1, 3) == Fraction(1, 3)

    def test_exact_division_normalizes(self):
        result = num.generic_div(6, 3)
        assert result == 2 and isinstance(result, int)

    def test_exact_division_by_zero_raises(self):
        with pytest.raises(WrongTypeError):
            num.generic_div(1, 0)

    def test_float_division_by_zero_gives_infinity(self):
        assert num.generic_div(1.0, 0.0) == math.inf
        assert num.generic_div(-1.0, 0.0) == -math.inf

    def test_zero_over_float_zero_is_nan(self):
        assert math.isnan(num.generic_div(0.0, 0.0))

    @pytest.mark.parametrize("a", [1.5, -1.5, 0.0, Fraction(1, 2),
                                   complex(1.0, 2.0), 0])
    def test_exact_zero_divisor_raises_whatever_the_dividend(self, a):
        with use_stats(Stats()) as s:
            with pytest.raises(WrongTypeError, match="non-zero number"):
                num.generic_div(a, 0)
        assert s.generic_dispatches == 1

    #: a divisor computed at run time, so pyc cannot decide it statically
    DIVIDE = "#lang racket\n(define (f x y) (/ x y))\n"

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("expr", [
        "(/ 1.5 0)", "(f 1.5 0)", "(/ 0.0 0)", "(f 0.0 0)", "(f -2.5 0)",
        "(f 1/2 0)",
    ])
    def test_exact_zero_divisor_raises_on_both_backends(self, backend, expr):
        with Runtime(backend=backend) as rt:
            with pytest.raises(WrongTypeError) as excinfo:
                rt.run_source(f"{self.DIVIDE}(displayln {expr})\n")
            assert str(excinfo.value) == "/: expected non-zero number, given: 0"
            assert rt.stats.generic_dispatches == 1

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("expr, expected", [
        ("(/ 1.5 0.0)", "+inf.0"), ("(f 1.5 0.0)", "+inf.0"),
        ("(/ -1.5 0.0)", "-inf.0"), ("(f 1.5 -0.0)", "-inf.0"),
        ("(f 0.0 0.0)", "+nan.0"), ("(f 3 4)", "3/4"),
    ])
    def test_float_zero_divisor_is_an_infinity(self, backend, expr, expected):
        with Runtime(backend=backend) as rt:
            out = rt.run_source(f"{self.DIVIDE}(displayln {expr})\n")
            assert out == expected + "\n"
            assert rt.stats.generic_dispatches == 1

    def test_quotient_truncates_toward_zero(self):
        assert num.generic_quotient(7, 2) == 3
        assert num.generic_quotient(-7, 2) == -3

    def test_remainder_sign_follows_dividend(self):
        assert num.generic_remainder(-7, 2) == -1
        assert num.generic_remainder(7, -2) == 1

    def test_modulo_sign_follows_divisor(self):
        assert num.generic_modulo(-7, 2) == 1
        assert num.generic_modulo(7, -2) == -1


class TestSqrtAndFriends:
    def test_perfect_square_stays_exact(self):
        result = num.generic_sqrt(49)
        assert result == 7 and isinstance(result, int)

    def test_non_square_becomes_float(self):
        assert num.generic_sqrt(2) == math.sqrt(2)

    def test_exact_rational_square(self):
        assert num.generic_sqrt(Fraction(1, 4)) == Fraction(1, 2)

    def test_negative_gives_complex(self):
        assert num.generic_sqrt(-4) == complex(0.0, 2.0)

    def test_negative_float(self):
        assert num.generic_sqrt(-4.0) == complex(0.0, 2.0)

    def test_complex_sqrt(self):
        result = num.generic_sqrt(complex(0.0, 2.0))
        assert abs(result - complex(1.0, 1.0)) < 1e-12

    def test_magnitude_of_complex(self):
        assert num.generic_magnitude(complex(3.0, 4.0)) == 5.0

    def test_magnitude_of_real(self):
        assert num.generic_magnitude(-7) == 7

    def test_make_rectangular(self):
        assert num.generic_make_rectangular(1.0, 2.0) == complex(1.0, 2.0)

    def test_make_rectangular_exact_zero_imag_is_real(self):
        assert num.generic_make_rectangular(5, 0) == 5

    def test_real_and_imag_parts(self):
        z = complex(1.5, -2.5)
        assert num.generic_real_part(z) == 1.5
        assert num.generic_imag_part(z) == -2.5
        assert num.generic_imag_part(3) == 0

    def test_expt_exact(self):
        assert num.generic_expt(2, 10) == 1024

    def test_expt_negative_exponent_gives_rational(self):
        assert num.generic_expt(2, -2) == Fraction(1, 4)

    def test_exact_to_inexact(self):
        assert num.generic_exact_to_inexact(Fraction(1, 2)) == 0.5

    def test_inexact_to_exact(self):
        assert num.generic_inexact_to_exact(0.5) == Fraction(1, 2)


class TestComparisons:
    def test_lt_chain_types(self):
        assert num.generic_lt(1, 2)
        assert num.generic_lt(1, 1.5)
        assert num.generic_le(2, 2)

    def test_comparison_rejects_complex(self):
        with pytest.raises(WrongTypeError):
            num.generic_lt(complex(1, 1), 2)

    def test_num_eq_across_exactness(self):
        assert num.generic_num_eq(1, 1.0)

    def test_min_max_contagion(self):
        assert num.generic_min(1, 2.0) == 1.0
        assert isinstance(num.generic_min(1, 2.0), float)
        assert num.generic_max(3, 2.0) == 3.0


class TestRounding:
    def test_floor_exact(self):
        assert num.generic_floor(Fraction(7, 2)) == 3

    def test_floor_float_stays_float(self):
        assert num.generic_floor(3.7) == 3.0
        assert isinstance(num.generic_floor(3.7), float)

    def test_round_is_banker(self):
        assert num.generic_round(Fraction(5, 2)) == 2
        assert num.generic_round(Fraction(7, 2)) == 4

    def test_truncate_toward_zero(self):
        assert num.generic_truncate(-3.7) == -3.0


class TestPredicates:
    def test_number_classification(self):
        assert num.is_number(1)
        assert num.is_number(1.5)
        assert num.is_number(Fraction(1, 2))
        assert num.is_number(complex(1, 1))
        assert not num.is_number(True)
        assert not num.is_number("1")

    def test_real_excludes_complex(self):
        assert num.is_real(1.5)
        assert not num.is_real(complex(1, 1))

    def test_exact_integer(self):
        assert num.is_exact_integer(3)
        assert not num.is_exact_integer(3.0)
        assert not num.is_exact_integer(True)

    def test_flonum(self):
        assert num.is_flonum(1.0)
        assert not num.is_flonum(1)

    def test_float_complex(self):
        assert num.is_float_complex(complex(1, 2))
        assert not num.is_float_complex(1.0)


class TestUnsafeOps:
    def test_unsafe_matches_generic_on_floats(self):
        assert num.unsafe_fl_add(1.5, 2.5) == num.generic_add(1.5, 2.5)
        assert num.unsafe_fl_mul(3.0, 4.0) == num.generic_mul(3.0, 4.0)
        assert num.unsafe_fl_div(1.0, 3.0) == num.generic_div(1.0, 3.0)

    def test_unsafe_division_by_zero_matches(self):
        assert num.unsafe_fl_div(1.0, 0.0) == math.inf
        assert math.isnan(num.unsafe_fl_div(0.0, 0.0))

    def test_unsafe_ops_do_not_dispatch(self):
        with use_stats(Stats()) as s:
            num.unsafe_fl_add(1.0, 2.0)
            num.unsafe_fx_add(1, 2)
        assert s.generic_dispatches == 0

    def test_unsafe_counter(self):
        with use_stats(Stats()) as s:
            num.unsafe_fl_add(1.0, 2.0)
        assert s.unsafe_ops == 1

    def test_unsafe_fx_quotient_truncates(self):
        assert num.unsafe_fx_quotient(-7, 2) == num.generic_quotient(-7, 2)
        assert num.unsafe_fx_remainder(-7, 2) == num.generic_remainder(-7, 2)

    def test_unsafe_fc_matches_generic(self):
        a, b = complex(1.0, 2.0), complex(3.0, -1.0)
        assert num.unsafe_fc_mul(a, b) == num.generic_mul(a, b)
        assert num.unsafe_fc_magnitude(a) == num.generic_magnitude(a)


BIG = "(expt 10 400)"


class TestExactToFlonumOverflow:
    """An exact operand beyond the flonum range meets a flonum: Racket
    converts it to ``±inf.0`` first, where Python's conversion raises
    ``OverflowError`` (which is not a ReproError)."""

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("expr, expected", [
        (f"(+ {BIG} 1.5)", "+inf.0"),
        (f"(- 1.5 {BIG})", "-inf.0"),
        (f"(* {BIG} 0.5)", "+inf.0"),
        (f"(/ {BIG} 2.0)", "+inf.0"),
        (f"(/ 2.0 {BIG})", "0.0"),
        (f"(max {BIG} 1.5)", "+inf.0"),
        (f"(exact->inexact {BIG})", "+inf.0"),
        (f"(+ (/ {BIG} 3) 1.5)", "+inf.0"),
        (f"(- (- {BIG}) 1.5)", "-inf.0"),
        (f"(/ {BIG} 0.0)", "+inf.0"),
    ])
    def test_program(self, backend, expr, expected):
        with Runtime(backend=backend) as rt:
            out = rt.run_source(f"#lang racket\n(displayln {expr})\n")
        assert out == expected + "\n"

    def test_to_flonum_saturates(self):
        assert num.to_flonum(10**400) == math.inf
        assert num.to_flonum(-(10**400)) == -math.inf
        assert num.to_flonum(Fraction(10**400, 3)) == math.inf
        assert num.to_flonum(3) == 3.0

    def test_comparisons_stay_exact(self):
        assert num.generic_lt(1e308, 10**400)
        assert not num.generic_num_eq(10**400, math.inf)
        assert num.generic_gt(10**400 + 1, float(10**300))

    def test_charges_once(self):
        with use_stats(Stats()) as s:
            assert num.generic_add(10**400, 1.5) == math.inf
        assert s.generic_dispatches == 1


class TestEdgeValuesAnswerLikeRacket:
    """Operations on infinities, NaN and values beyond the flonum range
    answer with Racket's value or a coded ``WrongTypeError``, never a raw
    Python exception (which ``/run`` would report as S500)."""

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("expr, expected", [
        *[(f"({op} {x})", x)
          for op in ("floor", "ceiling", "truncate", "round")
          for x in ("+inf.0", "-inf.0", "+nan.0")],
        *[(f"({op} {x})", "+nan.0")
          for op in ("sin", "cos", "tan") for x in ("+inf.0", "-inf.0")],
        ("(exp 1000)", "+inf.0"),
        (f"(exp (- {BIG}))", "0.0"),
        ("(expt 1.5 100000)", "+inf.0"),
        ("(expt -1.5 100001)", "-inf.0"),
        ("(expt -1.5 100000)", "+inf.0"),
        ("(expt 0.0 -1)", "+inf.0"),
        ("(expt -0.0 -1)", "-inf.0"),
        (f"(sqrt (+ 1 {BIG}))", "1e+200"),
        (f"(sqrt (/ (+ 1 {BIG}) 4))", "5e+199"),
        # off [-1, 1], asin and acos have complex principal values
        ("(asin 2)", "1.5707963267948966-1.3169578969248166i"),
        ("(asin -2.0)", "-1.5707963267948966+1.3169578969248164i"),
        ("(acos 2.0)", "0.0+1.3169578969248166i"),
        ("(acos -2)", "3.141592653589793-1.3169578969248164i"),
        ("(asin 0.5)", "0.5235987755982989"),
        ("(asin +nan.0)", "+nan.0"),
        # an exact integer power past the range is the repeated product
        ("(expt 1e200+1.0i 2)", "+inf.0+2e+200i"),
        ("(expt 1e200+1.0i 3)", "+inf.0+inf.0i"),
        ("(expt 1+2i 3)", "-11.0-2.0i"),
        ("(expt 1e200+1.0i 2.5)", "+inf.0+inf.0i"),
        # a complex exp past the range has infinite parts, and the log
        # of a complex zero is -inf.0 with the zero's angle
        ("(exp 1000+1.0i)", "+inf.0+inf.0i"),
        ("(exp 1000-1.0i)", "+inf.0-inf.0i"),
        ("(exp 1.0+1.0i)", "1.4686939399158851+2.2873552871788423i"),
        ("(log 0.0+0.0i)", "-inf.0+0.0i"),
        ("(log -0.0+0.0i)", "-inf.0+3.141592653589793i"),
        ("(log 1.0+1.0i)", "0.34657359027997264+0.7853981633974483i"),
    ])
    def test_value(self, backend, expr, expected):
        with Runtime(backend=backend) as rt:
            out = rt.run_source(f"#lang racket\n(displayln {expr})\n")
        assert out == expected + "\n"

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("expr, who", [
        ("(inexact->exact +inf.0)", "inexact->exact"),
        ("(inexact->exact -inf.0)", "inexact->exact"),
        ("(inexact->exact +nan.0)", "inexact->exact"),
        ("(/ 1.0 0.0+0.0i)", "/"),
        ("(expt 0 -1.0)", "expt"),
    ])
    def test_wrong_type(self, backend, expr, who):
        with Runtime(backend=backend) as rt:
            with pytest.raises(WrongTypeError, match=f"^{re.escape(who)}: "):
                rt.run_source(f"#lang racket\n(displayln {expr})\n")

    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    @pytest.mark.parametrize("z, n, product", [
        ("1e200+1.0i", 2, "(* z z)"),
        ("1e200+1.0i", 3, "(* z (* z z))"),
        ("1.0+1e200i", 5, "(* z (let ([s (* z z)]) (* s s)))"),
        ("-3e100-2e100i", 4, "(let ([s (* z z)]) (* s s))"),
    ])
    def test_expt_multiplies_repeated_squares(self, backend, z, n, product):
        with Runtime(backend=backend) as rt:
            out = rt.run_source(
                f"#lang racket\n(define z {z})\n"
                f"(displayln (expt z {n}))\n(displayln {product})\n"
            )
        power, squares = out.splitlines()
        assert power == squares

    def test_unsafe_flonum_ops_agree(self):
        assert math.isnan(num.unsafe_fl_sin(math.inf))
        assert math.isnan(num.unsafe_fl_cos(-math.inf))
        assert num.unsafe_fl_floor(-math.inf) == -math.inf
        assert math.isnan(num.unsafe_fl_floor(math.nan))


class TestFlonumDivisionByZero:
    def test_nan_over_zero_is_nan(self):
        assert math.isnan(num.generic_div(math.nan, 0.0))
        assert math.isnan(num.unsafe_fl_div(math.nan, 0.0))

    def test_complex_over_flonum_zero(self):
        assert num.generic_div(complex(1.0, -2.0), 0.0) == complex(
            math.inf, -math.inf
        )
