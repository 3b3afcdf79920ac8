"""The kernel primitive library.

Builds the table of runtime primitives installed in the ``#%kernel`` module.
Safe accessors perform tag checks, counted in ``tag_checks`` on the Stats of
the operation in progress (:func:`~repro.runtime.stats.current_stats`); the
``unsafe-*`` family skips them (§7.1: "Racket exposes unsafe type-specialized
primitives ... they also serve as signals to the code generator").
"""

from __future__ import annotations

import math
import random as _py_random
import time
from fractions import Fraction
from typing import Any, Callable, Optional

from repro.errors import RuntimeReproError, WrongTypeError
from repro.runtime import numerics as num
from repro.runtime import values as v
from repro.runtime.equality import eq, equal, eqv
from repro.runtime.ports import current_output_port
from repro.runtime.printing import display_value, write_value
from repro.runtime.stats import current_stats

PRIMITIVES: dict[str, v.Primitive] = {}


def define_prim(
    name: str, arity_min: int = 0, arity_max: Optional[int] = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        PRIMITIVES[name] = v.Primitive(name, fn, arity_min, arity_max)
        return fn

    return register


def add_prim(name: str, fn: Callable[..., Any], arity_min: int = 0,
             arity_max: Optional[int] = None) -> None:
    PRIMITIVES[name] = v.Primitive(name, fn, arity_min, arity_max)


# --- numeric operations -------------------------------------------------------


def _fold(op: Callable[[Any, Any], Any], init: Any, args: tuple[Any, ...]) -> Any:
    acc = init
    for arg in args:
        acc = op(acc, arg)
    return acc


@define_prim("+", 0)
def prim_add(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_add(args[0], args[1])
    if not args:
        return 0
    return _fold(num.generic_add, args[0], args[1:])


@define_prim("-", 1)
def prim_sub(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_sub(args[0], args[1])
    if len(args) == 1:
        return num.generic_neg(args[0])
    return _fold(num.generic_sub, args[0], args[1:])


@define_prim("*", 0)
def prim_mul(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_mul(args[0], args[1])
    if not args:
        return 1
    return _fold(num.generic_mul, args[0], args[1:])


@define_prim("/", 1)
def prim_div(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_div(args[0], args[1])
    if len(args) == 1:
        return num.generic_div(1, args[0])
    return _fold(num.generic_div, args[0], args[1:])


def _chain(op: Callable[[Any, Any], bool]) -> Callable[..., bool]:
    def compare(*args: Any) -> bool:
        for a, b in zip(args, args[1:]):
            if not op(a, b):
                return False
        return True

    return compare


add_prim("<", _chain(num.generic_lt), 2)
add_prim("<=", _chain(num.generic_le), 2)
add_prim(">", _chain(num.generic_gt), 2)
add_prim(">=", _chain(num.generic_ge), 2)
add_prim("=", _chain(num.generic_num_eq), 2)

add_prim("quotient", num.generic_quotient, 2, 2)
add_prim("remainder", num.generic_remainder, 2, 2)
add_prim("modulo", num.generic_modulo, 2, 2)
add_prim("abs", num.generic_abs, 1, 1)
add_prim("sqrt", num.generic_sqrt, 1, 1)
add_prim("expt", num.generic_expt, 2, 2)
add_prim("exp", num.generic_exp, 1, 1)
add_prim("log", num.generic_log, 1, 1)
add_prim("sin", num.generic_sin, 1, 1)
add_prim("cos", num.generic_cos, 1, 1)
add_prim("tan", num.generic_tan, 1, 1)
add_prim("asin", num.generic_asin, 1, 1)
add_prim("acos", num.generic_acos, 1, 1)
add_prim("atan", num.generic_atan, 1, 2)
add_prim("floor", num.generic_floor, 1, 1)
add_prim("ceiling", num.generic_ceiling, 1, 1)
add_prim("truncate", num.generic_truncate, 1, 1)
add_prim("round", num.generic_round, 1, 1)
add_prim("magnitude", num.generic_magnitude, 1, 1)
add_prim("real-part", num.generic_real_part, 1, 1)
add_prim("imag-part", num.generic_imag_part, 1, 1)
add_prim("make-rectangular", num.generic_make_rectangular, 2, 2)
add_prim("exact->inexact", num.generic_exact_to_inexact, 1, 1)
add_prim("inexact->exact", num.generic_inexact_to_exact, 1, 1)
add_prim("exact", num.generic_inexact_to_exact, 1, 1)
add_prim("gcd", num.generic_gcd, 2, 2)
add_prim("numerator", num.generic_numerator, 1, 1)
add_prim("denominator", num.generic_denominator, 1, 1)


@define_prim("min", 1)
def prim_min(*args: Any) -> Any:
    return _fold(num.generic_min, args[0], args[1:])


@define_prim("max", 1)
def prim_max(*args: Any) -> Any:
    return _fold(num.generic_max, args[0], args[1:])


add_prim("add1", lambda x: num.generic_add(x, 1), 1, 1)
add_prim("sub1", lambda x: num.generic_sub(x, 1), 1, 1)
add_prim("zero?", lambda x: num.generic_num_eq(x, 0), 1, 1)
add_prim("positive?", lambda x: num.generic_gt(x, 0), 1, 1)
add_prim("negative?", lambda x: num.generic_lt(x, 0), 1, 1)


@define_prim("even?", 1, 1)
def prim_even(x: Any) -> bool:
    current_stats().generic_dispatches += 1
    if not num.is_exact_integer(x):
        raise WrongTypeError("even?", "integer?", x)
    return x % 2 == 0


@define_prim("odd?", 1, 1)
def prim_odd(x: Any) -> bool:
    current_stats().generic_dispatches += 1
    if not num.is_exact_integer(x):
        raise WrongTypeError("odd?", "integer?", x)
    return x % 2 == 1


# numeric predicates
add_prim("number?", num.is_number, 1, 1)
add_prim("real?", num.is_real, 1, 1)
add_prim("rational?", lambda x: num.is_real(x) and (not isinstance(x, float) or math.isfinite(x)), 1, 1)
add_prim("integer?", lambda x: num.is_exact_integer(x) or (isinstance(x, float) and x.is_integer()), 1, 1)
add_prim("exact-integer?", num.is_exact_integer, 1, 1)
add_prim("exact-nonnegative-integer?", lambda x: num.is_exact_integer(x) and x >= 0, 1, 1)
add_prim("exact-rational?", num.is_exact_rational, 1, 1)
add_prim("flonum?", num.is_flonum, 1, 1)
add_prim("complex?", num.is_number, 1, 1)
add_prim("float-complex?", num.is_float_complex, 1, 1)
add_prim("exact?", lambda x: num.is_exact_rational(x), 1, 1)
add_prim("inexact?", lambda x: isinstance(x, (float, complex)), 1, 1)
add_prim("nan?", lambda x: isinstance(x, float) and math.isnan(x), 1, 1)
add_prim("infinite?", lambda x: isinstance(x, float) and math.isinf(x), 1, 1)


@define_prim("number->string", 1, 1)
def prim_number_to_string(x: Any) -> str:
    return num.generic_number_to_string(x)


@define_prim("string->number", 1, 1)
def prim_string_to_number(s: Any) -> Any:
    if not isinstance(s, str):
        raise WrongTypeError("string->number", "string?", s)
    from repro.reader.reader import classify_atom
    from repro.syn.srcloc import NO_SRCLOC

    try:
        result = classify_atom(s, NO_SRCLOC)
    except Exception:
        return False
    if num.is_number(result):
        return result
    return False


# --- unsafe primitives ---------------------------------------------------------

_UNSAFE = {
    "unsafe-fl+": (num.unsafe_fl_add, 2, 2),
    "unsafe-fl-": (num.unsafe_fl_sub, 2, 2),
    "unsafe-fl*": (num.unsafe_fl_mul, 2, 2),
    "unsafe-fl/": (num.unsafe_fl_div, 2, 2),
    "unsafe-fl<": (num.unsafe_fl_lt, 2, 2),
    "unsafe-fl<=": (num.unsafe_fl_le, 2, 2),
    "unsafe-fl>": (num.unsafe_fl_gt, 2, 2),
    "unsafe-fl>=": (num.unsafe_fl_ge, 2, 2),
    "unsafe-fl=": (num.unsafe_fl_eq, 2, 2),
    "unsafe-flabs": (num.unsafe_fl_abs, 1, 1),
    "unsafe-flmin": (num.unsafe_fl_min, 2, 2),
    "unsafe-flmax": (num.unsafe_fl_max, 2, 2),
    "unsafe-flneg": (num.unsafe_fl_neg, 1, 1),
    "unsafe-flsqrt": (num.unsafe_fl_sqrt, 1, 1),
    "unsafe-flsin": (num.unsafe_fl_sin, 1, 1),
    "unsafe-flcos": (num.unsafe_fl_cos, 1, 1),
    "unsafe-flfloor": (num.unsafe_fl_floor, 1, 1),
    "unsafe-fx+": (num.unsafe_fx_add, 2, 2),
    "unsafe-fx-": (num.unsafe_fx_sub, 2, 2),
    "unsafe-fx*": (num.unsafe_fx_mul, 2, 2),
    "unsafe-fx<": (num.unsafe_fx_lt, 2, 2),
    "unsafe-fx<=": (num.unsafe_fx_le, 2, 2),
    "unsafe-fx>": (num.unsafe_fx_gt, 2, 2),
    "unsafe-fx>=": (num.unsafe_fx_ge, 2, 2),
    "unsafe-fx=": (num.unsafe_fx_eq, 2, 2),
    "unsafe-fxquotient": (num.unsafe_fx_quotient, 2, 2),
    "unsafe-fxremainder": (num.unsafe_fx_remainder, 2, 2),
    "unsafe-fc+": (num.unsafe_fc_add, 2, 2),
    "unsafe-fc-": (num.unsafe_fc_sub, 2, 2),
    "unsafe-fc*": (num.unsafe_fc_mul, 2, 2),
    "unsafe-fc/": (num.unsafe_fc_div, 2, 2),
    "unsafe-fcmagnitude": (num.unsafe_fc_magnitude, 1, 1),
    "unsafe-fcreal-part": (num.unsafe_fc_real, 1, 1),
    "unsafe-fcimag-part": (num.unsafe_fc_imag, 1, 1),
}
for _name, (_fn, _lo, _hi) in _UNSAFE.items():
    add_prim(_name, _fn, _lo, _hi)


def _unsafe_car(p: v.Pair) -> Any:
    current_stats().unsafe_ops += 1
    return p.car


def _unsafe_cdr(p: v.Pair) -> Any:
    current_stats().unsafe_ops += 1
    return p.cdr


def _unsafe_vector_ref(vec: v.MVector, i: int) -> Any:
    current_stats().unsafe_ops += 1
    return vec.items[i]


def _unsafe_vector_set(vec: v.MVector, i: int, value: Any) -> Any:
    current_stats().unsafe_ops += 1
    vec.items[i] = value
    return v.VOID


def _unsafe_vector_length(vec: v.MVector) -> int:
    current_stats().unsafe_ops += 1
    return len(vec.items)


add_prim("unsafe-car", _unsafe_car, 1, 1)
add_prim("unsafe-cdr", _unsafe_cdr, 1, 1)
add_prim("unsafe-vector-ref", _unsafe_vector_ref, 2, 2)
add_prim("unsafe-vector-set!", _unsafe_vector_set, 3, 3)
add_prim("unsafe-vector-length", _unsafe_vector_length, 1, 1)


# --- booleans and equality -----------------------------------------------------

add_prim("not", lambda x: x is False, 1, 1)
add_prim("boolean?", lambda x: isinstance(x, bool), 1, 1)
add_prim("eq?", eq, 2, 2)
add_prim("eqv?", eqv, 2, 2)
add_prim("equal?", equal, 2, 2)


# --- pairs and lists -----------------------------------------------------------

add_prim("cons", v.Pair, 2, 2)


@define_prim("car", 1, 1)
def prim_car(p: Any) -> Any:
    current_stats().tag_checks += 1
    if type(p) is not v.Pair:
        raise WrongTypeError("car", "pair?", p)
    return p.car


@define_prim("cdr", 1, 1)
def prim_cdr(p: Any) -> Any:
    current_stats().tag_checks += 1
    if type(p) is not v.Pair:
        raise WrongTypeError("cdr", "pair?", p)
    return p.cdr


@define_prim("set-car!", 2, 2)
def prim_set_car(p: Any, value: Any) -> Any:
    current_stats().tag_checks += 1
    if type(p) is not v.Pair:
        raise WrongTypeError("set-car!", "pair?", p)
    p.car = value
    return v.VOID


@define_prim("set-cdr!", 2, 2)
def prim_set_cdr(p: Any, value: Any) -> Any:
    current_stats().tag_checks += 1
    if type(p) is not v.Pair:
        raise WrongTypeError("set-cdr!", "pair?", p)
    p.cdr = value
    return v.VOID


def _cxr(path: str) -> Callable[[Any], Any]:
    ops = [prim_car if c == "a" else prim_cdr for c in reversed(path)]

    def access(p: Any) -> Any:
        for op in ops:
            p = op(p)
        return p

    return access


for _path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add", "daa", "dad", "dda", "ddd"):
    add_prim(f"c{_path}r", _cxr(_path), 1, 1)

add_prim("pair?", lambda x: type(x) is v.Pair, 1, 1)
add_prim("null?", lambda x: x is v.NULL, 1, 1)
add_prim("list?", v.is_list, 1, 1)
add_prim("list", lambda *args: v.from_list(args), 0)


@define_prim("list*", 1)
def prim_list_star(*args: Any) -> Any:
    return v.from_list(args[:-1], args[-1])


@define_prim("length", 1, 1)
def prim_length(lst: Any) -> int:
    try:
        return v.list_length(lst)
    except ValueError:
        raise WrongTypeError("length", "list?", lst) from None


@define_prim("append", 0)
def prim_append(*lists: Any) -> Any:
    if not lists:
        return v.NULL
    result = lists[-1]
    for lst in reversed(lists[:-1]):
        try:
            items = v.to_list(lst)
        except ValueError:
            raise WrongTypeError("append", "list?", lst) from None
        result = v.from_list(items, result)
    return result


@define_prim("reverse", 1, 1)
def prim_reverse(lst: Any) -> Any:
    result: Any = v.NULL
    node = lst
    while type(node) is v.Pair:
        result = v.Pair(node.car, result)
        node = node.cdr
    if node is not v.NULL:
        raise WrongTypeError("reverse", "list?", lst)
    return result


@define_prim("list-ref", 2, 2)
def prim_list_ref(lst: Any, i: Any) -> Any:
    node = lst
    k = i
    while k > 0 and type(node) is v.Pair:
        node = node.cdr
        k -= 1
    if type(node) is not v.Pair:
        raise RuntimeReproError(f"list-ref: index {i} too large for list")
    return node.car


@define_prim("list-tail", 2, 2)
def prim_list_tail(lst: Any, i: Any) -> Any:
    node = lst
    for _ in range(i):
        if type(node) is not v.Pair:
            raise RuntimeReproError(f"list-tail: index {i} too large")
        node = node.cdr
    return node


def _member_by(pred: Callable[[Any, Any], bool], who: str) -> Callable[[Any, Any], Any]:
    def member(x: Any, lst: Any) -> Any:
        node = lst
        while type(node) is v.Pair:
            if pred(x, node.car):
                return node
            node = node.cdr
        return False

    return member


add_prim("member", _member_by(equal, "member"), 2, 2)
add_prim("memq", _member_by(eq, "memq"), 2, 2)
add_prim("memv", _member_by(eqv, "memv"), 2, 2)


def _assoc_by(pred: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    def assoc(x: Any, lst: Any) -> Any:
        node = lst
        while type(node) is v.Pair:
            entry = node.car
            if type(entry) is v.Pair and pred(x, entry.car):
                return entry
            node = node.cdr
        return False

    return assoc


add_prim("assoc", _assoc_by(equal), 2, 2)
add_prim("assq", _assoc_by(eq), 2, 2)
add_prim("assv", _assoc_by(eqv), 2, 2)


# first..tenth / rest / last
add_prim("first", prim_car, 1, 1)
add_prim("rest", prim_cdr, 1, 1)
for _i, _name in enumerate(
    ("second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth"),
    start=1,
):
    def _nth(i: int) -> Callable[[Any], Any]:
        def access(lst: Any) -> Any:
            return prim_list_ref(lst, i)

        return access

    add_prim(_name, _nth(_i), 1, 1)


@define_prim("last", 1, 1)
def prim_last(lst: Any) -> Any:
    if type(lst) is not v.Pair:
        raise WrongTypeError("last", "non-empty list", lst)
    node = lst
    while type(node.cdr) is v.Pair:
        node = node.cdr
    return node.car


# higher-order list ops (need apply_procedure)


def _apply(fn: Any, args: list[Any]) -> Any:
    from repro.core.interp import apply_procedure

    return apply_procedure(fn, args)


@define_prim("map", 2)
def prim_map(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    return v.from_list([_apply(fn, [lst[i] for lst in pylists]) for i in range(n)])


@define_prim("for-each", 2)
def prim_for_each(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    for i in range(n):
        _apply(fn, [lst[i] for lst in pylists])
    return v.VOID


@define_prim("filter", 2, 2)
def prim_filter(pred: Any, lst: Any) -> Any:
    return v.from_list([x for x in v.to_list(lst) if _apply(pred, [x]) is not False])


@define_prim("foldl", 3)
def prim_foldl(fn: Any, init: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    acc = init
    n = min(len(lst) for lst in pylists)
    for i in range(n):
        acc = _apply(fn, [lst[i] for lst in pylists] + [acc])
    return acc


@define_prim("foldr", 3)
def prim_foldr(fn: Any, init: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    acc = init
    n = min(len(lst) for lst in pylists)
    for i in reversed(range(n)):
        acc = _apply(fn, [lst[i] for lst in pylists] + [acc])
    return acc


@define_prim("andmap", 2)
def prim_andmap(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    result: Any = True
    for i in range(n):
        result = _apply(fn, [lst[i] for lst in pylists])
        if result is False:
            return False
    return result


@define_prim("ormap", 2)
def prim_ormap(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    for i in range(n):
        result = _apply(fn, [lst[i] for lst in pylists])
        if result is not False:
            return result
    return False


@define_prim("sort", 2, 2)
def prim_sort(lst: Any, less_than: Any) -> Any:
    import functools

    items = v.to_list(lst)
    key = functools.cmp_to_key(
        lambda a, b: -1 if _apply(less_than, [a, b]) is not False else (
            1 if _apply(less_than, [b, a]) is not False else 0
        )
    )
    return v.from_list(sorted(items, key=key))


@define_prim("build-list", 2, 2)
def prim_build_list(n: Any, fn: Any) -> Any:
    return v.from_list([_apply(fn, [i]) for i in range(n)])


@define_prim("range", 1, 3)
def prim_range(a: Any, b: Any = None, step: Any = 1) -> Any:
    if b is None:
        a, b = 0, a
    out = []
    x = a
    if step > 0:
        while x < b:
            out.append(x)
            x += step
    else:
        while x > b:
            out.append(x)
            x += step
    return v.from_list(out)


# --- symbols, keywords, chars ---------------------------------------------------

add_prim("symbol?", lambda x: isinstance(x, v.Symbol), 1, 1)
add_prim("keyword?", lambda x: isinstance(x, v.Keyword), 1, 1)
add_prim("symbol->string", lambda s: s.name, 1, 1)
add_prim("string->symbol", lambda s: v.Symbol(s), 1, 1)
add_prim("gensym", lambda base=None: v.gensym(base.name if isinstance(base, v.Symbol) else (base or "g")), 0, 1)
add_prim("char?", lambda x: isinstance(x, v.Char), 1, 1)
add_prim("char->integer", lambda c: ord(c.value), 1, 1)
add_prim("integer->char", lambda i: v.Char(chr(i)), 1, 1)
add_prim("char=?", lambda a, b: a.value == b.value, 2, 2)
add_prim("char<?", lambda a, b: a.value < b.value, 2, 2)
add_prim("char-alphabetic?", lambda c: c.value.isalpha(), 1, 1)
add_prim("char-numeric?", lambda c: c.value.isdigit(), 1, 1)
add_prim("char-whitespace?", lambda c: c.value.isspace(), 1, 1)
add_prim("char-upcase", lambda c: v.Char(c.value.upper()), 1, 1)
add_prim("char-downcase", lambda c: v.Char(c.value.lower()), 1, 1)


# --- strings ---------------------------------------------------------------------

add_prim("string?", lambda x: isinstance(x, str), 1, 1)
add_prim("string-length", len, 1, 1)


@define_prim("string-append", 0)
def prim_string_append(*args: Any) -> str:
    for a in args:
        if not isinstance(a, str):
            raise WrongTypeError("string-append", "string?", a)
    return "".join(args)


@define_prim("substring", 2, 3)
def prim_substring(s: Any, start: Any, end: Any = None) -> str:
    return s[start:end] if end is not None else s[start:]


@define_prim("string-ref", 2, 2)
def prim_string_ref(s: Any, i: Any) -> v.Char:
    if not isinstance(s, str):
        raise WrongTypeError("string-ref", "string?", s)
    if not (0 <= i < len(s)):
        raise RuntimeReproError(f"string-ref: index {i} out of range")
    return v.Char(s[i])


add_prim("string=?", lambda a, b: a == b, 2, 2)
add_prim("string<?", lambda a, b: a < b, 2, 2)
add_prim("string>?", lambda a, b: a > b, 2, 2)
add_prim("string-upcase", str.upper, 1, 1)
add_prim("string-downcase", str.lower, 1, 1)
add_prim("string->list", lambda s: v.from_list([v.Char(c) for c in s]), 1, 1)
add_prim("list->string", lambda lst: "".join(c.value for c in v.to_list(lst)), 1, 1)
add_prim("string-contains?", lambda s, sub: sub in s, 2, 2)
add_prim("string-join", lambda lst, sep=" ": sep.join(v.to_list(lst)), 1, 2)
add_prim("string-split", lambda s, sep=None: v.from_list(s.split(sep)), 1, 2)
add_prim("string", lambda *chars: "".join(c.value for c in chars), 0)
add_prim("make-string", lambda n, c=None: (c.value if c else " ") * n, 1, 2)
add_prim("string->bytes", lambda s: s, 1, 1)  # bytes are strings in this runtime
add_prim("bytes?", lambda x: isinstance(x, str), 1, 1)


# --- vectors ---------------------------------------------------------------------

add_prim("vector?", lambda x: type(x) is v.MVector, 1, 1)
add_prim("vector", lambda *args: v.MVector(args), 0)


@define_prim("make-vector", 1, 2)
def prim_make_vector(n: Any, fill: Any = 0) -> v.MVector:
    if not num.is_exact_integer(n) or n < 0:
        raise WrongTypeError("make-vector", "exact-nonnegative-integer?", n)
    return v.MVector([fill] * n)


@define_prim("vector-ref", 2, 2)
def prim_vector_ref(vec: Any, i: Any) -> Any:
    current_stats().tag_checks += 1
    if type(vec) is not v.MVector:
        raise WrongTypeError("vector-ref", "vector?", vec)
    if not (isinstance(i, int) and 0 <= i < len(vec.items)):
        raise RuntimeReproError(f"vector-ref: index {i} out of range [0, {len(vec.items)})")
    return vec.items[i]


@define_prim("vector-set!", 3, 3)
def prim_vector_set(vec: Any, i: Any, value: Any) -> Any:
    current_stats().tag_checks += 1
    if type(vec) is not v.MVector:
        raise WrongTypeError("vector-set!", "vector?", vec)
    if not (isinstance(i, int) and 0 <= i < len(vec.items)):
        raise RuntimeReproError(f"vector-set!: index {i} out of range [0, {len(vec.items)})")
    vec.items[i] = value
    return v.VOID


@define_prim("vector-length", 1, 1)
def prim_vector_length(vec: Any) -> int:
    current_stats().tag_checks += 1
    if type(vec) is not v.MVector:
        raise WrongTypeError("vector-length", "vector?", vec)
    return len(vec.items)


add_prim("vector->list", lambda vec: v.from_list(vec.items), 1, 1)
add_prim("list->vector", lambda lst: v.MVector(v.to_list(lst)), 1, 1)


@define_prim("vector-fill!", 2, 2)
def prim_vector_fill(vec: Any, value: Any) -> Any:
    for i in range(len(vec.items)):
        vec.items[i] = value
    return v.VOID


add_prim("vector-copy", lambda vec: v.MVector(list(vec.items)), 1, 1)
add_prim("vector-map", lambda fn, vec: v.MVector([_apply(fn, [x]) for x in vec.items]), 2, 2)
add_prim("build-vector", lambda n, fn: v.MVector([_apply(fn, [i]) for i in range(n)]), 2, 2)


# --- boxes and hash tables --------------------------------------------------------

add_prim("box", v.Box, 1, 1)
add_prim("box?", lambda x: isinstance(x, v.Box), 1, 1)


@define_prim("unbox", 1, 1)
def prim_unbox(b: Any) -> Any:
    if not isinstance(b, v.Box):
        raise WrongTypeError("unbox", "box?", b)
    return b.value


@define_prim("set-box!", 2, 2)
def prim_set_box(b: Any, value: Any) -> Any:
    if not isinstance(b, v.Box):
        raise WrongTypeError("set-box!", "box?", b)
    b.value = value
    return v.VOID


add_prim("make-hash", lambda: v.HashTable(), 0, 0)
add_prim("hash?", lambda x: isinstance(x, v.HashTable), 1, 1)


@define_prim("hash-set!", 3, 3)
def prim_hash_set(h: Any, key: Any, value: Any) -> Any:
    h.set(key, value)
    return v.VOID


_NO_DEFAULT = object()


@define_prim("hash-ref", 2, 3)
def prim_hash_ref(h: Any, key: Any, default: Any = _NO_DEFAULT) -> Any:
    if h.has(key):
        return h.get(key)
    if default is _NO_DEFAULT:
        raise RuntimeReproError(f"hash-ref: no value found for key: {write_value(key)}")
    if isinstance(default, v.Procedure):
        return _apply(default, [])
    return default


add_prim("hash-has-key?", lambda h, k: h.has(k), 2, 2)
add_prim("hash-remove!", lambda h, k: (h.remove(k), v.VOID)[1], 2, 2)
add_prim("hash-count", lambda h: h.count(), 1, 1)
add_prim("hash-keys", lambda h: v.from_list(h.keys()), 1, 1)


# --- control -----------------------------------------------------------------------


@define_prim("apply", 2)
def prim_apply(fn: Any, *rest: Any) -> Any:
    args = list(rest[:-1]) + v.to_list(rest[-1])
    return _apply(fn, args)


@define_prim("values", 0)
def prim_values(*args: Any) -> Any:
    if len(args) == 1:
        return args[0]
    return v.Values(args)


@define_prim("call-with-values", 2, 2)
def prim_call_with_values(producer: Any, consumer: Any) -> Any:
    result = _apply(producer, [])
    if isinstance(result, v.Values):
        return _apply(consumer, list(result.items))
    return _apply(consumer, [result])


@define_prim("error", 1)
def prim_error(message: Any, *args: Any) -> Any:
    if isinstance(message, v.Symbol):
        text = message.name
        if args and isinstance(args[0], str):
            text += ": " + args[0]
            args = args[1:]
    elif isinstance(message, str):
        text = message
    else:
        text = write_value(message)
    if args:
        text += " " + " ".join(write_value(a) for a in args)
    raise RuntimeReproError(text)


add_prim("void", lambda *args: v.VOID, 0)
add_prim("void?", lambda x: x is v.VOID, 1, 1)
add_prim("procedure?", lambda x: isinstance(x, v.Procedure), 1, 1)
add_prim("eof-object?", lambda x: x is v.EOF, 1, 1)
add_prim("eof-object", lambda: v.EOF, 0, 0)
add_prim("identity", lambda x: x, 1, 1)


# --- output ------------------------------------------------------------------------


@define_prim("display", 1, 2)
def prim_display(x: Any, port: Any = None) -> Any:
    current_output_port().write(display_value(x))
    return v.VOID


@define_prim("displayln", 1, 2)
def prim_displayln(x: Any, port: Any = None) -> Any:
    current_output_port().write(display_value(x) + "\n")
    return v.VOID


@define_prim("write", 1, 2)
def prim_write(x: Any, port: Any = None) -> Any:
    current_output_port().write(write_value(x))
    return v.VOID


@define_prim("newline", 0, 1)
def prim_newline(port: Any = None) -> Any:
    current_output_port().write("\n")
    return v.VOID


def format_string(fmt: str, args: tuple[Any, ...]) -> str:
    out: list[str] = []
    i = 0
    arg_i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "~" and i + 1 < len(fmt):
            directive = fmt[i + 1]
            i += 2
            if directive == "a":
                out.append(display_value(args[arg_i]))
                arg_i += 1
            elif directive in ("s", "v"):
                out.append(write_value(args[arg_i]))
                arg_i += 1
            elif directive == "%" or directive == "n":
                out.append("\n")
            elif directive == "~":
                out.append("~")
            else:
                raise RuntimeReproError(f"format: unknown directive ~{directive}")
        else:
            out.append(ch)
            i += 1
    if arg_i != len(args):
        raise RuntimeReproError(
            f"format: expected {arg_i} arguments, got {len(args)}"
        )
    return "".join(out)


@define_prim("format", 1)
def prim_format(fmt: Any, *args: Any) -> str:
    if not isinstance(fmt, str):
        raise WrongTypeError("format", "string?", fmt)
    return format_string(fmt, args)


@define_prim("printf", 1)
def prim_printf(fmt: Any, *args: Any) -> Any:
    current_output_port().write(format_string(fmt, args))
    return v.VOID


# --- time and randomness --------------------------------------------------------

add_prim("current-seconds", lambda: int(time.time()), 0, 0)
add_prim("current-inexact-milliseconds", lambda: time.time() * 1000.0, 0, 0)

_RNG = _py_random.Random(20110604)  # deterministic: the paper's publication date


@define_prim("random", 0, 1)
def prim_random(n: Any = None) -> Any:
    if n is None:
        return _RNG.random()
    if not num.is_exact_integer(n) or n <= 0:
        raise WrongTypeError("random", "positive integer", n)
    return _RNG.randrange(n)


@define_prim("random-seed", 1, 1)
def prim_random_seed(seed: Any) -> Any:
    _RNG.seed(seed)
    return v.VOID


add_prim("sleep", lambda s=0: (time.sleep(min(float(s), 0.1)), v.VOID)[1], 0, 1)


# --- syntax-object primitives (used by phase-1 / compile-time code) ---------------

from repro.syn.binding import bound_identifier_eq, free_identifier_eq  # noqa: E402
from repro.syn.syntax import (  # noqa: E402
    ImproperList,
    Syntax,
    datum_to_syntax,
    syntax_to_datum,
    syntax_to_list,
)


add_prim("syntax?", lambda x: isinstance(x, Syntax), 1, 1)
add_prim("identifier?", lambda x: isinstance(x, Syntax) and x.is_identifier(), 1, 1)


@define_prim("syntax-e", 1, 1)
def prim_syntax_e(stx: Any) -> Any:
    if not isinstance(stx, Syntax):
        raise WrongTypeError("syntax-e", "syntax?", stx)
    e = stx.e
    if isinstance(e, tuple):
        return v.from_list(e)
    if isinstance(e, ImproperList):
        return v.from_list(e.items, e.tail)
    return e


@define_prim("syntax->list", 1, 1)
def prim_syntax_to_list(stx: Any) -> Any:
    if not isinstance(stx, Syntax):
        raise WrongTypeError("syntax->list", "syntax?", stx)
    items = syntax_to_list(stx)
    if items is None:
        return False
    return v.from_list(items)


@define_prim("syntax->datum", 1, 1)
def prim_syntax_to_datum(stx: Any) -> Any:
    from repro.syn.syntax import datum_to_value

    return datum_to_value(syntax_to_datum(stx))


@define_prim("datum->syntax", 2, 2)
def prim_datum_to_syntax(ctx: Any, datum: Any) -> Any:
    if ctx is not False and not isinstance(ctx, Syntax):
        raise WrongTypeError("datum->syntax", "syntax? or #f", ctx)

    def value_to_datum(x: Any) -> Any:
        if isinstance(x, Syntax):
            return x
        if type(x) is v.Pair:
            items = []
            node = x
            while type(node) is v.Pair:
                items.append(value_to_datum(node.car))
                node = node.cdr
            if node is v.NULL:
                return tuple(items)
            context = ctx if ctx is not False else None
            return ImproperList(
                tuple(datum_to_syntax(context, i) for i in items),
                datum_to_syntax(context, value_to_datum(node)),
            )
        if x is v.NULL:
            return ()
        return x

    return datum_to_syntax(ctx if ctx is not False else None, value_to_datum(datum))


add_prim("free-identifier=?", free_identifier_eq, 2, 2)
add_prim("bound-identifier=?", bound_identifier_eq, 2, 2)


@define_prim("syntax-property-put", 3, 3)
def prim_syntax_property_put(stx: Any, key: Any, value: Any) -> Any:
    if not isinstance(stx, Syntax):
        raise WrongTypeError("syntax-property-put", "syntax?", stx)
    key_name = key.name if isinstance(key, v.Symbol) else key
    return stx.property_put(key_name, value)


@define_prim("syntax-property-get", 2, 3)
def prim_syntax_property_get(stx: Any, key: Any, default: Any = False) -> Any:
    if not isinstance(stx, Syntax):
        raise WrongTypeError("syntax-property-get", "syntax?", stx)
    key_name = key.name if isinstance(key, v.Symbol) else key
    return stx.property_get(key_name, default)


@define_prim("raise-syntax-error", 2, 3)
def prim_raise_syntax_error(who: Any, message: Any, stx: Any = None) -> Any:
    from repro.errors import SyntaxExpansionError

    who_text = who.name if isinstance(who, v.Symbol) else (who if who is not False else "syntax")
    raise SyntaxExpansionError(f"{who_text}: {message}", stx)


# --- sequences (used by the `for` forms) -------------------------------------


@define_prim("in-range", 1, 3)
def prim_in_range(a: Any, b: Any = None, step: Any = 1) -> Any:
    return prim_range(a, b, step)


@define_prim("sequence->list", 1, 1)
def prim_sequence_to_list(seq: Any) -> Any:
    if seq is v.NULL or type(seq) is v.Pair:
        return seq
    if type(seq) is v.MVector:
        return v.from_list(seq.items)
    if isinstance(seq, str):
        return v.from_list([v.Char(c) for c in seq])
    raise WrongTypeError("sequence->list", "sequence", seq)


# typed-language support primitives (add-type!, typed-context?, contract, ...)
import repro.runtime.typed_prims  # noqa: E402,F401  (registers via side effect)

# promise support for the lazy language (make-promise, force, lazy-apply)
import repro.runtime.promises  # noqa: E402,F401  (registers via side effect)

# struct support (make-struct-type, struct?, struct-ref)
import repro.runtime.structs  # noqa: E402,F401  (registers via side effect)

# quasisyntax template primitives (qs-coerce, qs-splice, syntax-rebuild)
import repro.expander.quasisyntax  # noqa: E402,F401  (registers via side effect)


# --- error handling (with-handlers support) ----------------------------------


@define_prim("exn-message", 1, 1)
def prim_exn_message(e: Any) -> str:
    if not isinstance(e, RuntimeReproError):
        raise WrongTypeError("exn-message", "exn?", e)
    return e.message


add_prim("exn?", lambda x: isinstance(x, RuntimeReproError), 1, 1)


@define_prim("raise", 1, 1)
def prim_raise(value: Any) -> Any:
    if isinstance(value, RuntimeReproError):
        raise value
    raise RuntimeReproError(display_value(value))


@define_prim("call-with-error-handlers", 3, 3)
def prim_call_with_error_handlers(preds: Any, handlers: Any, thunk: Any) -> Any:
    from repro.core.interp import apply_procedure

    try:
        return apply_procedure(thunk, [])
    except RuntimeReproError as error:
        pred_list = v.to_list(preds)
        handler_list = v.to_list(handlers)
        for pred, handler in zip(pred_list, handler_list):
            if apply_procedure(pred, [error]) is not False:
                return apply_procedure(handler, [error])
        raise


# --- allocation marking (resource governance) ---------------------------------

#: constructors whose call sites the resource governor (repro.guard) charges
#: against an allocation budget; struct constructors are marked where they
#: are built (repro.runtime.structs)
ALLOCATING_PRIMITIVES = frozenset({
    "cons", "list", "list*", "append", "reverse", "map", "build-list",
    "vector", "make-vector", "list->vector", "vector->list", "vector-copy",
    "vector-map", "string-append", "make-string", "string-copy",
    "list->string", "string->list", "substring", "box", "make-hash",
})

for _name in ALLOCATING_PRIMITIVES:
    _prim = PRIMITIVES.get(_name)
    if _prim is not None:
        _prim.allocates = True
del _name, _prim
