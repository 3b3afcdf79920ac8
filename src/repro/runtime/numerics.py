"""The numeric tower: generic dispatching operations and unsafe specialized ones.

Representation:

- exact integers       -> Python ``int`` (``bool`` is *not* a number)
- exact rationals      -> ``fractions.Fraction`` (never with denominator 1;
                          those normalize back to ``int``)
- flonums              -> Python ``float``
- float-complexes      -> Python ``complex``

Generic operations (``generic_add`` etc.) dispatch on operand types, applying
the usual contagion rules (exactness is lost when a flonum is involved;
anything touching a complex becomes complex). Every generic call bumps
``generic_dispatches``, and every unsafe one ``unsafe_ops``, on the Stats of
the operation in progress (:func:`~repro.runtime.stats.current_stats`).
Dispatch is the cost the paper's optimizer removes by rewriting to the
``unsafe_fl*``/``unsafe_fx*`` operations below, which perform no dispatch
and no tag checks (undefined behaviour on wrong types, exactly like
Racket's ``unsafe-fl+``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from repro.errors import WrongTypeError
from repro.runtime.stats import current_stats

Real = (int, Fraction, float)
Number = (int, Fraction, float, complex)

# The tower's own classes, for exact-type membership tests. ``Fraction``'s
# metaclass is ``ABCMeta``, so ``isinstance(x, Number)`` on a flonum runs
# ``ABCMeta.__instancecheck__``; ``type(x) in`` these sets is one hash
# lookup. Anything else (``bool``, subclasses, non-numbers) falls back to
# the ``isinstance`` chain, so its answers and error messages are unchanged.
_NUMBER_TYPES = frozenset(Number)
_REAL_TYPES = frozenset(Real)


def is_number(x: Any) -> bool:
    return type(x) in _NUMBER_TYPES or (
        isinstance(x, Number) and not isinstance(x, bool)
    )


def is_real(x: Any) -> bool:
    return type(x) in _REAL_TYPES or (
        isinstance(x, Real) and not isinstance(x, bool)
    )


def is_exact_integer(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_exact_rational(x: Any) -> bool:
    return (isinstance(x, int) and not isinstance(x, bool)) or isinstance(x, Fraction)


def is_flonum(x: Any) -> bool:
    return isinstance(x, float)


def is_float_complex(x: Any) -> bool:
    return isinstance(x, complex) and not isinstance(x, (float, int))


def normalize(x: Any) -> Any:
    """Collapse ``Fraction`` with denominator 1 to ``int``."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def to_flonum(x: Any) -> float:
    """The flonum for the real ``x``: Racket's exact->inexact conversion.

    An exact number beyond the flonum range becomes ``±inf.0``, where
    Python's ``float()`` raises ``OverflowError``. Every exact→flonum
    conversion in this module goes through here; comparisons never
    convert (Python compares ``int``/``Fraction`` with ``float`` exactly).
    """
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _inexact_contagion(a: Any, b: Any) -> tuple[Any, Any]:
    """When one operand is inexact (flonum or float-complex) and the other
    exact, convert the exact one with :func:`to_flonum`, as Racket does
    before it computes; Python would convert it itself, and overflow."""
    if isinstance(a, (float, complex)):
        if isinstance(b, (int, Fraction)):
            b = to_flonum(b)
    elif isinstance(b, (float, complex)) and isinstance(a, (int, Fraction)):
        a = to_flonum(a)
    return a, b


def _check_number(who: str, x: Any) -> None:
    if not is_number(x):
        raise WrongTypeError(who, "number?", x)


def _check_real(who: str, x: Any) -> None:
    if not is_real(x):
        raise WrongTypeError(who, "real?", x)


# --- generic arithmetic ------------------------------------------------------


def generic_add(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    t = type(a)
    if t is type(b) and (t is int or t is float):
        return a + b
    _check_number("+", a)
    _check_number("+", b)
    try:
        return normalize(a + b)
    except OverflowError:
        a, b = _inexact_contagion(a, b)
        return a + b


def generic_sub(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    t = type(a)
    if t is type(b) and (t is int or t is float):
        return a - b
    _check_number("-", a)
    _check_number("-", b)
    try:
        return normalize(a - b)
    except OverflowError:
        a, b = _inexact_contagion(a, b)
        return a - b


def generic_mul(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    t = type(a)
    if t is type(b) and (t is int or t is float):
        return a * b
    _check_number("*", a)
    _check_number("*", b)
    try:
        return normalize(a * b)
    except OverflowError:
        a, b = _inexact_contagion(a, b)
        return a * b


def generic_div(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("/", a)
    _check_number("/", b)
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise WrongTypeError("/", "non-zero number", b)
        if a % b == 0:
            return a // b
        return Fraction(a, b)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        if b == 0:
            raise WrongTypeError("/", "non-zero number", b)
        return normalize(Fraction(a) / Fraction(b))
    a, b = _inexact_contagion(a, b)
    if isinstance(b, complex):
        if b == 0:
            raise WrongTypeError("/", "non-zero number", b)
        return a / b
    if b == 0.0:
        # flonum division by zero yields infinities, like Racket
        if isinstance(a, complex):
            return complex(_fl_div_zero(a.real, b), _fl_div_zero(a.imag, b))
        return _fl_div_zero(a, b)
    return a / b


def _fl_div_zero(a: float, b: float) -> float:
    """``a / b`` for a flonum ``a`` and a zero flonum ``b``."""
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def generic_neg(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("-", a)
    return -a


def generic_quotient(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    if not is_exact_integer(a):
        raise WrongTypeError("quotient", "integer?", a)
    if not is_exact_integer(b) or b == 0:
        raise WrongTypeError("quotient", "non-zero integer", b)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


def generic_remainder(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    if not is_exact_integer(a):
        raise WrongTypeError("remainder", "integer?", a)
    if not is_exact_integer(b) or b == 0:
        raise WrongTypeError("remainder", "non-zero integer", b)
    return a - generic_quotient(a, b) * b


def generic_modulo(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    if not is_exact_integer(a):
        raise WrongTypeError("modulo", "integer?", a)
    if not is_exact_integer(b) or b == 0:
        raise WrongTypeError("modulo", "non-zero integer", b)
    return a % b


def _cmp_args(who: str, a: Any, b: Any) -> None:
    current_stats().generic_dispatches += 1
    if type(a) in _REAL_TYPES and type(b) in _REAL_TYPES:
        return
    _check_real(who, a)
    _check_real(who, b)


def generic_lt(a: Any, b: Any) -> bool:
    _cmp_args("<", a, b)
    return a < b


def generic_le(a: Any, b: Any) -> bool:
    _cmp_args("<=", a, b)
    return a <= b


def generic_gt(a: Any, b: Any) -> bool:
    _cmp_args(">", a, b)
    return a > b


def generic_ge(a: Any, b: Any) -> bool:
    _cmp_args(">=", a, b)
    return a >= b


def generic_num_eq(a: Any, b: Any) -> bool:
    current_stats().generic_dispatches += 1
    _check_number("=", a)
    _check_number("=", b)
    return a == b


def generic_abs(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("abs", a)
    return normalize(abs(a))


def generic_min(a: Any, b: Any) -> Any:
    _cmp_args("min", a, b)
    result = a if a <= b else b
    if isinstance(a, float) or isinstance(b, float):
        return to_flonum(result)
    return result


def generic_max(a: Any, b: Any) -> Any:
    _cmp_args("max", a, b)
    result = a if a >= b else b
    if isinstance(a, float) or isinstance(b, float):
        return to_flonum(result)
    return result


def generic_sqrt(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("sqrt", a)
    if isinstance(a, complex) and not isinstance(a, float):
        import cmath

        return cmath.sqrt(a)
    if isinstance(a, (int, Fraction)):
        if a >= 0:
            if isinstance(a, int):
                root = math.isqrt(a)
                if root * root == a:
                    return root
                return _inexact_sqrt(a)
            num_root = math.isqrt(a.numerator)
            den_root = math.isqrt(a.denominator)
            if num_root * num_root == a.numerator and den_root * den_root == a.denominator:
                return normalize(Fraction(num_root, den_root))
            try:
                return math.sqrt(a)
            except OverflowError:  # a beyond the flonum range: its floor will do
                return _inexact_sqrt(a.numerator // a.denominator)
        # negative exact -> exact-ish complex, matching Racket's (sqrt -4) = 2i
        pos = generic_sqrt(-a)
        return complex(0.0, to_flonum(pos))
    if a < 0:
        return complex(0.0, math.sqrt(-a))
    return math.sqrt(a)


def _inexact_sqrt(n: int) -> float:
    """The flonum square root of a non-negative exact integer. One beyond
    the flonum range goes through ``math.isqrt`` (Racket computes it too,
    where ``math.sqrt`` would raise ``OverflowError``)."""
    try:
        return math.sqrt(n)
    except OverflowError:
        return to_flonum(math.isqrt(n))


def generic_expt(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("expt", a)
    _check_number("expt", b)
    if is_exact_rational(a) and is_exact_integer(b):
        if b >= 0:
            return normalize(Fraction(a) ** b if isinstance(a, Fraction) else a**b)
        if a == 0:
            raise WrongTypeError("expt", "non-zero base for negative exponent", a)
        return normalize(Fraction(a) ** b)
    x, y = _inexact_contagion(a, b)
    try:
        if type(x) is complex and type(b) is int:
            return _complex_int_power(x, b)
        return x**y
    except (OverflowError, ZeroDivisionError) as err:
        if isinstance(err, ZeroDivisionError) and (
            type(a) is not float or type(y) is not float
        ):
            # an exact zero base, as in Racket's `(expt 0 -1.0)`
            raise WrongTypeError(
                "expt", "non-zero base for negative exponent", a
            ) from None
        if type(x) is complex or type(y) is complex:
            return _complex_power(x, y)
        # a flonum result beyond the range, or a zero flonum base and a
        # negative exponent: Racket's ±inf.0, negative only for a negative
        # base and an odd exponent
        odd = y.is_integer() and math.fmod(y, 2.0) != 0.0
        return math.copysign(math.inf, x) if odd else math.inf


def _complex_int_power(x: complex, n: int) -> complex:
    """A float-complex ``x`` to an exact integer power: the product of
    repeated squares (for ``n`` = 2 or 3, the product ``(* x x x)``).
    Python's own ``**`` raises ``OverflowError`` when a part leaves the
    flonum range, where Racket gives infinite or NaN parts."""
    result = None
    square = x
    k = abs(n)
    while True:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if not k:
            break
        square = square * square
    if result is None:  # n == 0
        return 1 + 0j
    return 1 / result if n < 0 else result


def _complex_power(x: Any, y: Any) -> complex:
    """``x ** y`` for a complex base or exponent, past the flonum range:
    exp(y log x), with infinite (or NaN) parts where Python raises."""
    import cmath

    return _complex_exp(y * cmath.log(x))


def _complex_exp(w: complex) -> complex:
    """``exp(w)`` as ``e^re (cos im + i sin im)``, with infinite (or NaN)
    parts where :func:`cmath.exp` raises."""
    try:
        magnitude = math.exp(w.real)
    except OverflowError:
        magnitude = math.inf
    if not math.isfinite(w.imag):
        return complex(math.nan, math.nan)
    return complex(magnitude * math.cos(w.imag), magnitude * math.sin(w.imag))


def generic_exp(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("exp", a)
    if isinstance(a, complex) and not isinstance(a, float):
        import cmath

        try:
            return cmath.exp(a)
        except (OverflowError, ValueError):
            # a real part past the flonum range, or an infinite angle
            return _complex_exp(a)
    try:
        return math.exp(a)
    except OverflowError:
        # beyond the flonum range: Racket's +inf.0 (or 0.0 for an exact
        # argument far below it)
        x = to_flonum(a)
        return 0.0 if x < 0 else math.inf


def generic_log(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("log", a)
    if isinstance(a, complex) and not isinstance(a, float):
        import cmath

        if a == 0:
            # log |0| is -inf.0; the angle keeps the zero parts' signs
            return complex(-math.inf, math.atan2(a.imag, a.real))
        return cmath.log(a)
    if a < 0:
        import cmath

        return cmath.log(complex(a))
    if a == 0:
        if isinstance(a, float):
            return -math.inf
        raise WrongTypeError("log", "non-zero number", a)
    return math.log(a)


def _real_trig(name: str, fn: Any) -> Any:
    def op(a: Any) -> Any:
        current_stats().generic_dispatches += 1
        _check_real(name, a)
        return fn(a)

    op.__name__ = f"generic_{name}"
    return op


def _periodic(fn: Any, a: Any) -> float:
    """``sin``/``cos``/``tan`` of a real: ``+nan.0`` at the infinities,
    where ``math`` raises a domain error."""
    a = to_flonum(a)
    if math.isinf(a):
        return math.nan
    return fn(a)


generic_sin = _real_trig("sin", lambda a: _periodic(math.sin, a))
generic_cos = _real_trig("cos", lambda a: _periodic(math.cos, a))
generic_tan = _real_trig("tan", lambda a: _periodic(math.tan, a))
def _asin_off_domain(a: Any) -> complex:
    """The principal value of asin at a real outside [-1, 1], where ``math``
    raises a domain error: asin z = -i log(iz + sqrt(1 - z^2))."""
    import cmath

    z = complex(to_flonum(a))
    return -1j * cmath.log(1j * z + cmath.sqrt(1 - z * z))


def _asin(a: Any) -> Any:
    return _asin_off_domain(a) if a > 1 or a < -1 else math.asin(a)


def _acos(a: Any) -> Any:
    # acos z = pi/2 - asin z
    return math.pi / 2 - _asin_off_domain(a) if a > 1 or a < -1 else math.acos(a)


generic_asin = _real_trig("asin", _asin)
generic_acos = _real_trig("acos", _acos)


def generic_atan(a: Any, b: Any = None) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("atan", a)
    if b is None:
        return math.atan(a)
    _check_real("atan", b)
    return math.atan2(a, b)


def generic_floor(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("floor", a)
    if isinstance(a, float):
        return float(math.floor(a)) if math.isfinite(a) else a
    return math.floor(a)


def generic_ceiling(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("ceiling", a)
    if isinstance(a, float):
        return float(math.ceil(a)) if math.isfinite(a) else a
    return math.ceil(a)


def generic_truncate(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("truncate", a)
    if isinstance(a, float):
        return float(math.trunc(a)) if math.isfinite(a) else a
    return math.trunc(a)


def generic_round(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("round", a)
    if isinstance(a, float):
        return float(round(a)) if math.isfinite(a) else a
    return round(a)  # banker's rounding, same as Racket


def generic_magnitude(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("magnitude", a)
    if isinstance(a, complex) and not isinstance(a, float):
        return abs(a)
    return normalize(abs(a))


def generic_real_part(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("real-part", a)
    if isinstance(a, complex) and not isinstance(a, float):
        return a.real
    return a


def generic_imag_part(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("imag-part", a)
    if isinstance(a, complex) and not isinstance(a, float):
        return a.imag
    return 0 if not isinstance(a, float) else 0.0


def generic_make_rectangular(re: Any, im: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("make-rectangular", re)
    _check_real("make-rectangular", im)
    if im == 0 and not isinstance(im, float):
        return re
    return complex(to_flonum(re), to_flonum(im))


def generic_exact_to_inexact(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_number("exact->inexact", a)
    if isinstance(a, complex) and not isinstance(a, float):
        return a
    return to_flonum(a)


def generic_inexact_to_exact(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    _check_real("inexact->exact", a)
    if isinstance(a, float):
        if not math.isfinite(a):
            raise WrongTypeError("inexact->exact", "rational?", a)
        return normalize(Fraction(a))
    return a


def generic_number_to_string(a: Any) -> str:
    _check_number("number->string", a)
    from repro.runtime.printing import write_value

    return write_value(a)


def generic_gcd(a: Any, b: Any) -> Any:
    current_stats().generic_dispatches += 1
    if not is_exact_integer(a):
        raise WrongTypeError("gcd", "integer?", a)
    if not is_exact_integer(b):
        raise WrongTypeError("gcd", "integer?", b)
    return math.gcd(a, b)


def generic_numerator(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    if isinstance(a, Fraction):
        return a.numerator
    if is_exact_integer(a):
        return a
    raise WrongTypeError("numerator", "exact rational", a)


def generic_denominator(a: Any) -> Any:
    current_stats().generic_dispatches += 1
    if isinstance(a, Fraction):
        return a.denominator
    if is_exact_integer(a):
        return 1
    raise WrongTypeError("denominator", "exact rational", a)


# --- unsafe specialized operations ------------------------------------------
#
# These mirror Racket's unsafe-fl / unsafe-fx / unsafe vector ops: no tag
# checks, no dispatch. Behaviour is undefined (a raw Python exception at best)
# when applied to the wrong types — the typed optimizer only emits them when
# the typechecker has proved the operand types.


def unsafe_fl_add(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    return a + b


def unsafe_fl_sub(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    return a - b


def unsafe_fl_mul(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    return a * b


def unsafe_fl_div(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    if b == 0.0:
        return _fl_div_zero(a, b)
    return a / b


def unsafe_fl_lt(a: float, b: float) -> bool:
    current_stats().unsafe_ops += 1
    return a < b


def unsafe_fl_le(a: float, b: float) -> bool:
    current_stats().unsafe_ops += 1
    return a <= b


def unsafe_fl_gt(a: float, b: float) -> bool:
    current_stats().unsafe_ops += 1
    return a > b


def unsafe_fl_ge(a: float, b: float) -> bool:
    current_stats().unsafe_ops += 1
    return a >= b


def unsafe_fl_eq(a: float, b: float) -> bool:
    current_stats().unsafe_ops += 1
    return a == b


def unsafe_fl_abs(a: float) -> float:
    current_stats().unsafe_ops += 1
    return abs(a)


def unsafe_fl_min(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    return a if a <= b else b


def unsafe_fl_max(a: float, b: float) -> float:
    current_stats().unsafe_ops += 1
    return a if a >= b else b


def unsafe_fl_neg(a: float) -> float:
    current_stats().unsafe_ops += 1
    return -a


def unsafe_fl_sqrt(a: float) -> Any:
    current_stats().unsafe_ops += 1
    try:
        return math.sqrt(a)
    except ValueError:  # a negative flonum: the imaginary root, as sqrt
        return complex(0.0, math.sqrt(-a))


def unsafe_fl_sin(a: float) -> float:
    current_stats().unsafe_ops += 1
    return _periodic(math.sin, a)


def unsafe_fl_cos(a: float) -> float:
    current_stats().unsafe_ops += 1
    return _periodic(math.cos, a)


def unsafe_fl_floor(a: float) -> float:
    current_stats().unsafe_ops += 1
    return float(math.floor(a)) if math.isfinite(a) else a


def unsafe_fx_add(a: int, b: int) -> int:
    current_stats().unsafe_ops += 1
    return a + b


def unsafe_fx_sub(a: int, b: int) -> int:
    current_stats().unsafe_ops += 1
    return a - b


def unsafe_fx_mul(a: int, b: int) -> int:
    current_stats().unsafe_ops += 1
    return a * b


def unsafe_fx_lt(a: int, b: int) -> bool:
    current_stats().unsafe_ops += 1
    return a < b


def unsafe_fx_le(a: int, b: int) -> bool:
    current_stats().unsafe_ops += 1
    return a <= b


def unsafe_fx_gt(a: int, b: int) -> bool:
    current_stats().unsafe_ops += 1
    return a > b


def unsafe_fx_ge(a: int, b: int) -> bool:
    current_stats().unsafe_ops += 1
    return a >= b


def unsafe_fx_eq(a: int, b: int) -> bool:
    current_stats().unsafe_ops += 1
    return a == b


def unsafe_fx_quotient(a: int, b: int) -> int:
    current_stats().unsafe_ops += 1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def unsafe_fx_remainder(a: int, b: int) -> int:
    current_stats().unsafe_ops += 1
    return a - unsafe_fx_quotient(a, b) * b


def unsafe_fc_add(a: complex, b: complex) -> complex:
    current_stats().unsafe_ops += 1
    return a + b


def unsafe_fc_sub(a: complex, b: complex) -> complex:
    current_stats().unsafe_ops += 1
    return a - b


def unsafe_fc_mul(a: complex, b: complex) -> complex:
    current_stats().unsafe_ops += 1
    return a * b


def unsafe_fc_div(a: complex, b: complex) -> complex:
    current_stats().unsafe_ops += 1
    return a / b


def unsafe_fc_magnitude(a: complex) -> float:
    current_stats().unsafe_ops += 1
    return abs(a)


def unsafe_fc_real(a: complex) -> float:
    current_stats().unsafe_ops += 1
    return a.real


def unsafe_fc_imag(a: complex) -> float:
    current_stats().unsafe_ops += 1
    return a.imag
