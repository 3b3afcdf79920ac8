"""Properties of the numeric tower.

Key invariant for the paper's optimizer: every unsafe specialized operation
agrees exactly with its generic counterpart on operands of the right type —
that is what makes the fig. 5 rewriting semantics-preserving.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.runtime import numerics as num

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
all_floats = st.floats(width=64)
ints = st.integers(min_value=-(10**9), max_value=10**9)
fractions = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999))
reals = st.one_of(ints, finite_floats, fractions)


def same_number(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if a != a or b != b:
            return a != a and b != b
        # 0.0 and -0.0 are == but print and divide differently
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


class TestUnsafeAgreesWithGeneric:
    @given(finite_floats, finite_floats)
    @settings(max_examples=300)
    def test_fl_add(self, a, b):
        assert same_number(num.unsafe_fl_add(a, b), num.generic_add(a, b))

    @given(finite_floats, finite_floats)
    def test_fl_sub(self, a, b):
        assert same_number(num.unsafe_fl_sub(a, b), num.generic_sub(a, b))

    @given(finite_floats, finite_floats)
    def test_fl_mul(self, a, b):
        assert same_number(num.unsafe_fl_mul(a, b), num.generic_mul(a, b))

    @given(all_floats, all_floats)
    def test_fl_div(self, a, b):
        assume(not (a != a or b != b))
        assert same_number(num.unsafe_fl_div(a, b), num.generic_div(a, b))

    @given(finite_floats, finite_floats)
    def test_fl_comparisons(self, a, b):
        assert num.unsafe_fl_lt(a, b) == num.generic_lt(a, b)
        assert num.unsafe_fl_le(a, b) == num.generic_le(a, b)
        assert num.unsafe_fl_gt(a, b) == num.generic_gt(a, b)
        assert num.unsafe_fl_ge(a, b) == num.generic_ge(a, b)
        assert num.unsafe_fl_eq(a, b) == num.generic_num_eq(a, b)

    @given(finite_floats)
    def test_fl_abs(self, a):
        assert same_number(num.unsafe_fl_abs(a), num.generic_abs(a))

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_fl_sqrt_nonnegative(self, a):
        assert same_number(num.unsafe_fl_sqrt(a), num.generic_sqrt(a))

    @given(ints, ints)
    def test_fx_ops(self, a, b):
        assert num.unsafe_fx_add(a, b) == num.generic_add(a, b)
        assert num.unsafe_fx_sub(a, b) == num.generic_sub(a, b)
        assert num.unsafe_fx_mul(a, b) == num.generic_mul(a, b)
        assert num.unsafe_fx_lt(a, b) == num.generic_lt(a, b)

    @given(ints, ints.filter(lambda x: x != 0))
    def test_fx_quotient_remainder(self, a, b):
        assert num.unsafe_fx_quotient(a, b) == num.generic_quotient(a, b)
        assert num.unsafe_fx_remainder(a, b) == num.generic_remainder(a, b)

    @given(
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e100),
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e100),
    )
    def test_fc_ops(self, a, b):
        assert num.unsafe_fc_add(a, b) == num.generic_add(a, b)
        assert num.unsafe_fc_sub(a, b) == num.generic_sub(a, b)
        assert num.unsafe_fc_mul(a, b) == num.generic_mul(a, b)


class TestAlgebraicProperties:
    @given(reals, reals)
    def test_addition_commutes(self, a, b):
        assert same_number(num.generic_add(a, b), num.generic_add(b, a))

    @given(ints, ints, ints)
    def test_exact_addition_associates(self, a, b, c):
        lhs = num.generic_add(num.generic_add(a, b), c)
        rhs = num.generic_add(a, num.generic_add(b, c))
        assert lhs == rhs

    @given(reals)
    @example(-0.0)
    def test_zero_identity(self, a):
        # exact 0 meets a flonum as 0.0 (contagion), and -0.0 + 0.0 is
        # +0.0 in IEEE arithmetic: only the sign of a zero can change
        expected = 0.0 if isinstance(a, float) and a == 0 else num.normalize(a)
        assert same_number(num.generic_add(a, 0), expected)

    @given(reals)
    def test_negation_inverse(self, a):
        assert num.generic_add(a, num.generic_neg(a)) == 0

    @given(st.one_of(ints, fractions).filter(lambda x: x != 0))
    def test_exact_division_inverse(self, a):
        assert num.generic_mul(num.generic_div(1, a), a) == 1

    @given(ints, ints.filter(lambda x: x != 0))
    def test_quotient_remainder_identity(self, a, b):
        q = num.generic_quotient(a, b)
        r = num.generic_remainder(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)

    @given(reals, reals)
    def test_comparison_totality(self, a, b):
        assert num.generic_lt(a, b) or num.generic_ge(a, b)
        assert num.generic_lt(a, b) == (not num.generic_ge(a, b))

    @given(st.integers(min_value=0, max_value=10**12))
    def test_sqrt_of_square_exact(self, n):
        assert num.generic_sqrt(n * n) == n

    @given(reals)
    def test_exactness_roundtrip(self, a):
        assume(not isinstance(a, float))
        inexact = num.generic_exact_to_inexact(a)
        assert isinstance(inexact, float)

    @given(finite_floats)
    def test_inexact_to_exact_roundtrip(self, x):
        exact = num.generic_inexact_to_exact(x)
        assert float(exact) == x
