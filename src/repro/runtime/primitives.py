"""The kernel primitive library.

Builds, once at import, the read-only table of the runtime primitives that
``#%kernel`` binds, from this module's spec tables and those of the modules
behind promises, structs, the typed languages and ``quasisyntax``.

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
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from repro.errors import RuntimeReproError, WrongTypeError
from repro.expander import quasisyntax
from repro.runtime import numerics as num
from repro.runtime import promises, structs, typed_prims
from repro.runtime import values as v
from repro.runtime.equality import eq, equal, eqv
from repro.runtime.ports import current_output_port
from repro.runtime.printing import display_value, write_value
from repro.runtime.stats import current_stats

#: one primitive's ``(fn, arity_min[, arity_max[, facts]])``: the arguments
#: of :class:`~repro.runtime.values.Primitive` after the name, ``facts``
#: being its keyword arguments (``result``, ``binary``, ``op`` ...); a spec
#: without facts is the record with the conservative defaults
PrimSpec = tuple[Any, ...]


def primitive_table(*tables: Mapping[str, PrimSpec]) -> Mapping[str, v.Primitive]:
    """The read-only table of the primitives ``tables`` specify (a name in
    only one of them)."""
    prims: dict[str, v.Primitive] = {}
    for table in tables:
        for name, spec in table.items():
            if name in prims:
                raise ValueError(f"primitive {name} specified twice")
            facts = spec[3] if len(spec) > 3 else {}
            prims[name] = v.Primitive(name, *spec[:3], **facts)
    return MappingProxyType(prims)


#: the primitives :func:`define_prim` declares below, in definition order
_DEFINED: dict[str, PrimSpec] = {}


def define_prim(
    name: str, arity_min: int = 0, arity_max: Optional[int] = None, **facts: Any
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def declare(fn: Callable[..., Any]) -> Callable[..., Any]:
        _DEFINED[name] = (fn, arity_min, arity_max, facts)
        return fn

    return declare


#: the facts most records state. ``"one"``: the result is never a
#: ``Values`` object, judged by the returned object's own type (numbers,
#: booleans, fresh pairs, vectors and strings, void). A primitive that can
#: hand back a stored or user-produced value (``car``, ``vector-ref``,
#: ``apply``, ``identity``, ``append``'s last list ...) is ``"any"``: a
#: Values object is first-class here. The unsafe accessors are ``"one"``
#: anyway, because the typed optimizer only emits them on proven single
#: values. ``"bool"``: always a Python ``bool``. ``allocates``: a
#: constructor the resource governor charges (struct constructors are
#: marked where they are built, in :mod:`repro.runtime.structs`).
_ONE = {"result": "one"}
_BOOL = {"result": "bool"}
_ALLOC = {"allocates": True}
_ALLOC_ONE = {"allocates": True, "result": "one"}


# --- numeric operations -------------------------------------------------------


def _fold(op: Callable[[Any, Any], Any], init: Any, args: tuple[Any, ...]) -> Any:
    acc = init
    for arg in args:
        acc = op(acc, arg)
    return acc


def _lone(who: str, x: Any, ok: Callable[[Any], bool], expected: str) -> Any:
    """The one operand of ``+``, ``*``, ``min`` or ``max``, which no
    two-operand step checks: checked here, as Racket does, and returned."""
    if not ok(x):
        raise WrongTypeError(who, expected, x)
    return x


@define_prim("+", 0, result="one", binary=num.generic_add, op="Add")
def prim_add(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_add(args[0], args[1])
    if not args:
        return 0
    if len(args) == 1:
        return _lone("+", args[0], num.is_number, "number?")
    return _fold(num.generic_add, args[0], args[1:])


@define_prim("-", 1, result="one", binary=num.generic_sub, op="Sub")
def prim_sub(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_sub(args[0], args[1])
    if len(args) == 1:
        return num.generic_neg(args[0])
    return _fold(num.generic_sub, args[0], args[1:])


@define_prim("*", 0, result="one", binary=num.generic_mul, op="Mult")
def prim_mul(*args: Any) -> Any:
    if len(args) == 2:
        return num.generic_mul(args[0], args[1])
    if not args:
        return 1
    if len(args) == 1:
        return _lone("*", args[0], num.is_number, "number?")
    return _fold(num.generic_mul, args[0], args[1:])


@define_prim("/", 1, result="one", binary=num.generic_div, op="Div")
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


@define_prim("min", 1, result="one")
def prim_min(*args: Any) -> Any:
    if len(args) == 1:
        return _lone("min", args[0], num.is_real, "real?")
    return _fold(num.generic_min, args[0], args[1:])


@define_prim("max", 1, result="one")
def prim_max(*args: Any) -> Any:
    if len(args) == 1:
        return _lone("max", args[0], num.is_real, "real?")
    return _fold(num.generic_max, args[0], args[1:])


@define_prim("even?", 1, 1, result="bool")
def prim_even(x: Any) -> bool:
    current_stats().generic_dispatches += 1
    if not num.is_exact_integer(x):
        raise WrongTypeError("even?", "integer?", x)
    return x % 2 == 0


@define_prim("odd?", 1, 1, result="bool")
def prim_odd(x: Any) -> bool:
    current_stats().generic_dispatches += 1
    if not num.is_exact_integer(x):
        raise WrongTypeError("odd?", "integer?", x)
    return x % 2 == 1


@define_prim("number->string", 1, 1, result="one")
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


_NUMERIC: dict[str, PrimSpec] = {
    "<": (_chain(num.generic_lt), 2, None,
          {"result": "bool", "binary": num.generic_lt, "op": "Lt"}),
    "<=": (_chain(num.generic_le), 2, None,
           {"result": "bool", "binary": num.generic_le, "op": "LtE"}),
    ">": (_chain(num.generic_gt), 2, None,
          {"result": "bool", "binary": num.generic_gt, "op": "Gt"}),
    ">=": (_chain(num.generic_ge), 2, None,
           {"result": "bool", "binary": num.generic_ge, "op": "GtE"}),
    "=": (_chain(num.generic_num_eq), 2, None,
          {"result": "bool", "binary": num.generic_num_eq, "op": "Eq"}),
    "quotient": (num.generic_quotient, 2, 2, _ONE),
    "remainder": (num.generic_remainder, 2, 2, _ONE),
    "modulo": (num.generic_modulo, 2, 2, _ONE),
    "abs": (num.generic_abs, 1, 1, _ONE),
    "sqrt": (num.generic_sqrt, 1, 1, _ONE),
    "expt": (num.generic_expt, 2, 2, _ONE),
    "exp": (num.generic_exp, 1, 1, _ONE),
    "log": (num.generic_log, 1, 1, _ONE),
    "sin": (num.generic_sin, 1, 1, _ONE),
    "cos": (num.generic_cos, 1, 1, _ONE),
    "tan": (num.generic_tan, 1, 1, _ONE),
    "asin": (num.generic_asin, 1, 1),
    "acos": (num.generic_acos, 1, 1),
    "atan": (num.generic_atan, 1, 2),
    "floor": (num.generic_floor, 1, 1, _ONE),
    "ceiling": (num.generic_ceiling, 1, 1, _ONE),
    "truncate": (num.generic_truncate, 1, 1, _ONE),
    "round": (num.generic_round, 1, 1, _ONE),
    "magnitude": (num.generic_magnitude, 1, 1),
    "real-part": (num.generic_real_part, 1, 1),
    "imag-part": (num.generic_imag_part, 1, 1),
    "make-rectangular": (num.generic_make_rectangular, 2, 2),
    "exact->inexact": (num.generic_exact_to_inexact, 1, 1, _ONE),
    "inexact->exact": (num.generic_inexact_to_exact, 1, 1, _ONE),
    "exact": (num.generic_inexact_to_exact, 1, 1, _ONE),
    "gcd": (num.generic_gcd, 2, 2, _ONE),
    "numerator": (num.generic_numerator, 1, 1),
    "denominator": (num.generic_denominator, 1, 1),
    "add1": (lambda x: num.generic_add(x, 1), 1, 1,
             {"result": "one", "op": "Add", "against": 1}),
    "sub1": (lambda x: num.generic_sub(x, 1), 1, 1,
             {"result": "one", "op": "Sub", "against": 1}),
    "zero?": (lambda x: num.generic_num_eq(x, 0), 1, 1,
              {"result": "bool", "op": "Eq", "against": 0}),
    "positive?": (lambda x: num.generic_gt(x, 0), 1, 1),
    "negative?": (lambda x: num.generic_lt(x, 0), 1, 1),
    "number?": (num.is_number, 1, 1, _BOOL),
    "real?": (num.is_real, 1, 1),
    "rational?": (lambda x: num.is_real(x) and (not isinstance(x, float) or math.isfinite(x)), 1, 1),
    "integer?": (lambda x: num.is_exact_integer(x) or (isinstance(x, float) and x.is_integer()), 1, 1),
    "exact-integer?": (num.is_exact_integer, 1, 1),
    "exact-nonnegative-integer?": (lambda x: num.is_exact_integer(x) and x >= 0, 1, 1),
    "exact-rational?": (num.is_exact_rational, 1, 1),
    "flonum?": (num.is_flonum, 1, 1),
    "complex?": (num.is_number, 1, 1),
    "float-complex?": (num.is_float_complex, 1, 1),
    "exact?": (lambda x: num.is_exact_rational(x), 1, 1),
    "inexact?": (lambda x: isinstance(x, (float, complex)), 1, 1),
    "nan?": (lambda x: isinstance(x, float) and math.isnan(x), 1, 1),
    "infinite?": (lambda x: isinstance(x, float) and math.isinf(x), 1, 1),
}


# --- unsafe primitives ---------------------------------------------------------


def _unsafe_car(p: v.Pair) -> Any:
    current_stats().unsafe_ops += 1
    return p.car


def _unsafe_cdr(p: v.Pair) -> Any:
    current_stats().unsafe_ops += 1
    return p.cdr


def _out_of_range(who: str, vec: v.MVector, i: Any) -> RuntimeReproError:
    return RuntimeReproError(f"{who}: index {i} out of range [0, {len(vec.items)})")


# the types prove a vector and an integer index, not that the index is in
# range: that check stays, with the checked primitive's error
def _unsafe_vector_ref(vec: v.MVector, i: int) -> Any:
    current_stats().unsafe_ops += 1
    if not 0 <= i < len(vec.items):
        raise _out_of_range("vector-ref", vec, i)
    return vec.items[i]


def _unsafe_vector_set(vec: v.MVector, i: int, value: Any) -> Any:
    current_stats().unsafe_ops += 1
    if not 0 <= i < len(vec.items):
        raise _out_of_range("vector-set!", vec, i)
    vec.items[i] = value
    return v.VOID


def _unsafe_vector_length(vec: v.MVector) -> int:
    current_stats().unsafe_ops += 1
    return len(vec.items)


def _unsafe(
    fn: Callable[..., Any], arity: int, rule: str,
    replaces: list[tuple[str, int]], **facts: Any,
) -> PrimSpec:
    """An ``unsafe-*`` primitive of fixed ``arity`` that the ``rule`` group
    of the typed optimizer puts in place of each checked call ``(name,
    operand count)`` in ``replaces``. A call one operand short of ``arity``
    (``add1``, ``sub1``) gains the checked primitive's ``against`` constant
    as its last operand."""
    return (fn, arity, arity, {"rule": rule, "replaces": tuple(replaces), **facts})


_UNSAFE: dict[str, PrimSpec] = {
    "unsafe-fl+": _unsafe(num.unsafe_fl_add, 2, "float", [("+", 2), ("add1", 1)],
                          result="one", op="Add"),
    "unsafe-fl-": _unsafe(num.unsafe_fl_sub, 2, "float", [("-", 2), ("sub1", 1)],
                          result="one", op="Sub"),
    "unsafe-fl*": _unsafe(num.unsafe_fl_mul, 2, "float", [("*", 2)],
                          result="one", op="Mult"),
    "unsafe-fl/": _unsafe(num.unsafe_fl_div, 2, "float", [("/", 2)],
                          result="one", op="Div"),
    "unsafe-fl<": _unsafe(num.unsafe_fl_lt, 2, "float", [("<", 2)],
                          result="bool", op="Lt"),
    "unsafe-fl<=": _unsafe(num.unsafe_fl_le, 2, "float", [("<=", 2)],
                           result="bool", op="LtE"),
    "unsafe-fl>": _unsafe(num.unsafe_fl_gt, 2, "float", [(">", 2)],
                          result="bool", op="Gt"),
    "unsafe-fl>=": _unsafe(num.unsafe_fl_ge, 2, "float", [(">=", 2)],
                           result="bool", op="GtE"),
    "unsafe-fl=": _unsafe(num.unsafe_fl_eq, 2, "float", [("=", 2)],
                          result="bool", op="Eq"),
    "unsafe-flabs": _unsafe(num.unsafe_fl_abs, 1, "float", [("abs", 1)]),
    "unsafe-flmin": _unsafe(num.unsafe_fl_min, 2, "float", [("min", 2)]),
    "unsafe-flmax": _unsafe(num.unsafe_fl_max, 2, "float", [("max", 2)]),
    "unsafe-flneg": _unsafe(num.unsafe_fl_neg, 1, "float", [("-", 1)],
                            result="one"),
    "unsafe-flsqrt": _unsafe(num.unsafe_fl_sqrt, 1, "float", [("sqrt", 1)]),
    "unsafe-flsin": _unsafe(num.unsafe_fl_sin, 1, "float", [("sin", 1)]),
    "unsafe-flcos": _unsafe(num.unsafe_fl_cos, 1, "float", [("cos", 1)]),
    "unsafe-flfloor": _unsafe(num.unsafe_fl_floor, 1, "float", [("floor", 1)]),
    "unsafe-fx+": _unsafe(num.unsafe_fx_add, 2, "fixnum", [("+", 2), ("add1", 1)],
                          result="one", op="Add"),
    "unsafe-fx-": _unsafe(num.unsafe_fx_sub, 2, "fixnum", [("-", 2), ("sub1", 1)],
                          result="one", op="Sub"),
    "unsafe-fx*": _unsafe(num.unsafe_fx_mul, 2, "fixnum", [("*", 2)],
                          result="one", op="Mult"),
    "unsafe-fx<": _unsafe(num.unsafe_fx_lt, 2, "fixnum", [("<", 2)],
                          result="bool", op="Lt"),
    "unsafe-fx<=": _unsafe(num.unsafe_fx_le, 2, "fixnum", [("<=", 2)],
                           result="bool", op="LtE"),
    "unsafe-fx>": _unsafe(num.unsafe_fx_gt, 2, "fixnum", [(">", 2)],
                          result="bool", op="Gt"),
    "unsafe-fx>=": _unsafe(num.unsafe_fx_ge, 2, "fixnum", [(">=", 2)],
                           result="bool", op="GtE"),
    "unsafe-fx=": _unsafe(num.unsafe_fx_eq, 2, "fixnum", [("=", 2)],
                          result="bool", op="Eq"),
    "unsafe-fxquotient": _unsafe(num.unsafe_fx_quotient, 2, "fixnum",
                                 [("quotient", 2)], result="one"),
    "unsafe-fxremainder": _unsafe(num.unsafe_fx_remainder, 2, "fixnum",
                                  [("remainder", 2)], result="one"),
    "unsafe-fc+": _unsafe(num.unsafe_fc_add, 2, "complex", [("+", 2)],
                          result="one", op="Add"),
    "unsafe-fc-": _unsafe(num.unsafe_fc_sub, 2, "complex", [("-", 2)],
                          result="one", op="Sub"),
    "unsafe-fc*": _unsafe(num.unsafe_fc_mul, 2, "complex", [("*", 2)],
                          result="one", op="Mult"),
    "unsafe-fc/": _unsafe(num.unsafe_fc_div, 2, "complex", [("/", 2)]),
    "unsafe-fcmagnitude": _unsafe(num.unsafe_fc_magnitude, 1, "complex",
                                  [("magnitude", 1)]),
    "unsafe-fcreal-part": _unsafe(num.unsafe_fc_real, 1, "complex",
                                  [("real-part", 1)]),
    "unsafe-fcimag-part": _unsafe(num.unsafe_fc_imag, 1, "complex",
                                  [("imag-part", 1)]),
    "unsafe-car": _unsafe(_unsafe_car, 1, "pairs", [("car", 1), ("first", 1)],
                          result="one"),
    "unsafe-cdr": _unsafe(_unsafe_cdr, 1, "pairs", [("cdr", 1), ("rest", 1)],
                          result="one"),
    "unsafe-vector-ref": _unsafe(_unsafe_vector_ref, 2, "vectors",
                                 [("vector-ref", 2)], result="one"),
    "unsafe-vector-set!": _unsafe(_unsafe_vector_set, 3, "vectors",
                                  [("vector-set!", 3)], result="one"),
    "unsafe-vector-length": _unsafe(_unsafe_vector_length, 1, "vectors",
                                    [("vector-length", 1)], result="one"),
}


# --- booleans and equality -----------------------------------------------------

_EQUALITY: dict[str, PrimSpec] = {
    "not": (lambda x: x is False, 1, 1, _BOOL),
    "boolean?": (lambda x: isinstance(x, bool), 1, 1, _BOOL),
    "eq?": (eq, 2, 2, _BOOL),
    "eqv?": (eqv, 2, 2, _BOOL),
    "equal?": (equal, 2, 2, _BOOL),
}


# --- pairs and lists -----------------------------------------------------------


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


@define_prim("list*", 1, **_ALLOC)
def prim_list_star(*args: Any) -> Any:
    return v.from_list(args[:-1], args[-1])


@define_prim("length", 1, 1, **_ONE)
def prim_length(lst: Any) -> int:
    try:
        return v.list_length(lst)
    except ValueError:
        raise WrongTypeError("length", "list?", lst) from None


@define_prim("append", 0, **_ALLOC)
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


@define_prim("reverse", 1, 1, **_ALLOC_ONE)
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


def _nth(i: int) -> Callable[[Any], Any]:
    def access(lst: Any) -> Any:
        return prim_list_ref(lst, i)

    return access


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


@define_prim("map", 2, **_ALLOC_ONE)
def prim_map(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    return v.from_list([_apply(fn, [lst[i] for lst in pylists]) for i in range(n)])


@define_prim("for-each", 2, **_ONE)
def prim_for_each(fn: Any, *lists: Any) -> Any:
    pylists = [v.to_list(lst) for lst in lists]
    n = min(len(lst) for lst in pylists)
    for i in range(n):
        _apply(fn, [lst[i] for lst in pylists])
    return v.VOID


@define_prim("filter", 2, 2, **_ONE)
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


@define_prim("sort", 2, 2, **_ONE)
def prim_sort(lst: Any, less_than: Any) -> Any:
    import functools

    items = v.to_list(lst)
    key = functools.cmp_to_key(
        lambda a, b: -1 if _apply(less_than, [a, b]) is not False else (
            1 if _apply(less_than, [b, a]) is not False else 0
        )
    )
    return v.from_list(sorted(items, key=key))


@define_prim("build-list", 2, 2, **_ALLOC_ONE)
def prim_build_list(n: Any, fn: Any) -> Any:
    return v.from_list([_apply(fn, [i]) for i in range(n)])


@define_prim("range", 1, 3, **_ONE)
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


_LISTS: dict[str, PrimSpec] = {
    "cons": (v.Pair, 2, 2, _ALLOC_ONE),
    "pair?": (lambda x: type(x) is v.Pair, 1, 1, _BOOL),
    "null?": (lambda x: x is v.NULL, 1, 1, _BOOL),
    "list?": (v.is_list, 1, 1, _BOOL),
    "list": (lambda *args: v.from_list(args), 0, None, _ALLOC_ONE),
    **{
        f"c{path}r": (_cxr(path), 1, 1)
        for path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add",
                     "daa", "dad", "dda", "ddd")
    },
    "member": (_member_by(equal, "member"), 2, 2, _ONE),
    "memq": (_member_by(eq, "memq"), 2, 2, _ONE),
    "memv": (_member_by(eqv, "memv"), 2, 2, _ONE),
    "assoc": (_assoc_by(equal), 2, 2, _ONE),
    "assq": (_assoc_by(eq), 2, 2, _ONE),
    "assv": (_assoc_by(eqv), 2, 2, _ONE),
    "first": (prim_car, 1, 1),
    "rest": (prim_cdr, 1, 1),
    **{
        name: (_nth(i), 1, 1)
        for i, name in enumerate(
            ("second", "third", "fourth", "fifth", "sixth", "seventh",
             "eighth", "ninth", "tenth"),
            start=1,
        )
    },
}


# --- symbols, keywords, chars ---------------------------------------------------

_SYMBOLS_AND_CHARS: dict[str, PrimSpec] = {
    "symbol?": (lambda x: isinstance(x, v.Symbol), 1, 1, _BOOL),
    "keyword?": (lambda x: isinstance(x, v.Keyword), 1, 1),
    "symbol->string": (lambda s: s.name, 1, 1, _ONE),
    "string->symbol": (lambda s: v.Symbol(s), 1, 1, _ONE),
    "gensym": (lambda base=None: v.gensym(base.name if isinstance(base, v.Symbol) else (base or "g")),
               0, 1, _ONE),
    "char?": (lambda x: isinstance(x, v.Char), 1, 1),
    "char->integer": (lambda c: ord(c.value), 1, 1),
    "integer->char": (lambda i: v.Char(chr(i)), 1, 1),
    "char=?": (lambda a, b: a.value == b.value, 2, 2),
    "char<?": (lambda a, b: a.value < b.value, 2, 2),
    "char-alphabetic?": (lambda c: c.value.isalpha(), 1, 1),
    "char-numeric?": (lambda c: c.value.isdigit(), 1, 1),
    "char-whitespace?": (lambda c: c.value.isspace(), 1, 1),
    "char-upcase": (lambda c: v.Char(c.value.upper()), 1, 1),
    "char-downcase": (lambda c: v.Char(c.value.lower()), 1, 1),
}


# --- strings ---------------------------------------------------------------------


@define_prim("string-append", 0, **_ALLOC_ONE)
def prim_string_append(*args: Any) -> str:
    for a in args:
        if not isinstance(a, str):
            raise WrongTypeError("string-append", "string?", a)
    return "".join(args)


@define_prim("substring", 2, 3, **_ALLOC_ONE)
def prim_substring(s: Any, start: Any, end: Any = None) -> str:
    return s[start:end] if end is not None else s[start:]


@define_prim("string-ref", 2, 2)
def prim_string_ref(s: Any, i: Any) -> v.Char:
    if not isinstance(s, str):
        raise WrongTypeError("string-ref", "string?", s)
    if not (0 <= i < len(s)):
        raise RuntimeReproError(f"string-ref: index {i} out of range")
    return v.Char(s[i])


_STRINGS: dict[str, PrimSpec] = {
    "string?": (lambda x: isinstance(x, str), 1, 1, _BOOL),
    "string-length": (len, 1, 1, _ONE),
    "string=?": (lambda a, b: a == b, 2, 2),
    "string<?": (lambda a, b: a < b, 2, 2),
    "string>?": (lambda a, b: a > b, 2, 2),
    "string-upcase": (str.upper, 1, 1, _ONE),
    "string-downcase": (str.lower, 1, 1, _ONE),
    "string->list": (lambda s: v.from_list([v.Char(c) for c in s]), 1, 1, _ALLOC),
    "list->string": (lambda lst: "".join(c.value for c in v.to_list(lst)), 1, 1, _ALLOC),
    "string-contains?": (lambda s, sub: sub in s, 2, 2),
    "string-join": (lambda lst, sep=" ": sep.join(v.to_list(lst)), 1, 2),
    "string-split": (lambda s, sep=None: v.from_list(s.split(sep)), 1, 2),
    "string": (lambda *chars: "".join(c.value for c in chars), 0, None, _ONE),
    "make-string": (lambda n, c=None: (c.value if c else " ") * n, 1, 2, _ALLOC_ONE),
    "string->bytes": (lambda s: s, 1, 1),  # bytes are strings in this runtime
    "bytes?": (lambda x: isinstance(x, str), 1, 1),
}


# --- vectors ---------------------------------------------------------------------


@define_prim("make-vector", 1, 2, **_ALLOC_ONE)
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
        raise _out_of_range("vector-ref", vec, i)
    return vec.items[i]


@define_prim("vector-set!", 3, 3, **_ONE)
def prim_vector_set(vec: Any, i: Any, value: Any) -> Any:
    current_stats().tag_checks += 1
    if type(vec) is not v.MVector:
        raise WrongTypeError("vector-set!", "vector?", vec)
    if not (isinstance(i, int) and 0 <= i < len(vec.items)):
        raise _out_of_range("vector-set!", vec, i)
    vec.items[i] = value
    return v.VOID


@define_prim("vector-length", 1, 1, **_ONE)
def prim_vector_length(vec: Any) -> int:
    current_stats().tag_checks += 1
    if type(vec) is not v.MVector:
        raise WrongTypeError("vector-length", "vector?", vec)
    return len(vec.items)


@define_prim("vector-fill!", 2, 2, **_ONE)
def prim_vector_fill(vec: Any, value: Any) -> Any:
    for i in range(len(vec.items)):
        vec.items[i] = value
    return v.VOID


_VECTORS: dict[str, PrimSpec] = {
    "vector?": (lambda x: type(x) is v.MVector, 1, 1, _BOOL),
    "vector": (lambda *args: v.MVector(args), 0, None, _ALLOC_ONE),
    "vector->list": (lambda vec: v.from_list(vec.items), 1, 1, _ALLOC_ONE),
    "list->vector": (lambda lst: v.MVector(v.to_list(lst)), 1, 1, _ALLOC_ONE),
    "vector-copy": (lambda vec: v.MVector(list(vec.items)), 1, 1, _ALLOC_ONE),
    "vector-map": (lambda fn, vec: v.MVector([_apply(fn, [x]) for x in vec.items]), 2, 2,
                   _ALLOC),
    "build-vector": (lambda n, fn: v.MVector([_apply(fn, [i]) for i in range(n)]), 2, 2),
}


# --- boxes and hash tables --------------------------------------------------------


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


@define_prim("hash-set!", 3, 3, **_ONE)
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


_BOXES_AND_HASHES: dict[str, PrimSpec] = {
    "box": (v.Box, 1, 1, _ALLOC_ONE),
    "box?": (lambda x: isinstance(x, v.Box), 1, 1),
    "make-hash": (lambda: v.HashTable(), 0, 0, _ALLOC_ONE),
    "hash?": (lambda x: isinstance(x, v.HashTable), 1, 1),
    "hash-has-key?": (lambda h, k: h.has(k), 2, 2),
    "hash-remove!": (lambda h, k: (h.remove(k), v.VOID)[1], 2, 2),
    "hash-count": (lambda h: h.count(), 1, 1, _ONE),
    "hash-keys": (lambda h: v.from_list(h.keys()), 1, 1, _ONE),
}


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


_CONTROL: dict[str, PrimSpec] = {
    "void": (lambda *args: v.VOID, 0, None, _ONE),
    "void?": (lambda x: x is v.VOID, 1, 1),
    "procedure?": (lambda x: isinstance(x, v.Procedure), 1, 1, _BOOL),
    "eof-object?": (lambda x: x is v.EOF, 1, 1),
    "eof-object": (lambda: v.EOF, 0, 0),
    "identity": (lambda x: x, 1, 1),
}


# --- output ------------------------------------------------------------------------


@define_prim("display", 1, 2, **_ONE)
def prim_display(x: Any, port: Any = None) -> Any:
    current_output_port().write(display_value(x))
    return v.VOID


@define_prim("displayln", 1, 2, **_ONE)
def prim_displayln(x: Any, port: Any = None) -> Any:
    current_output_port().write(display_value(x) + "\n")
    return v.VOID


@define_prim("write", 1, 2, **_ONE)
def prim_write(x: Any, port: Any = None) -> Any:
    current_output_port().write(write_value(x))
    return v.VOID


@define_prim("newline", 0, 1, **_ONE)
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


@define_prim("format", 1, **_ONE)
def prim_format(fmt: Any, *args: Any) -> str:
    if not isinstance(fmt, str):
        raise WrongTypeError("format", "string?", fmt)
    return format_string(fmt, args)


@define_prim("printf", 1, **_ONE)
def prim_printf(fmt: Any, *args: Any) -> Any:
    current_output_port().write(format_string(fmt, args))
    return v.VOID


# --- time and randomness --------------------------------------------------------

_RNG = _py_random.Random(20110604)  # deterministic: the paper's publication date


@define_prim("random", 0, 1, **_ONE)
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


_TIME: dict[str, PrimSpec] = {
    "current-seconds": (lambda: int(time.time()), 0, 0, _ONE),
    "current-inexact-milliseconds": (lambda: time.time() * 1000.0, 0, 0, _ONE),
    "sleep": (lambda s=0: (time.sleep(min(float(s), 0.1)), v.VOID)[1], 0, 1),
}


# --- syntax-object primitives (used by phase-1 / compile-time code) ---------------

from repro.expander.env import current_expander  # noqa: E402
from repro.syn.binding import bound_identifier_eq, free_identifier_eq  # noqa: E402
from repro.syn.syntax import (  # noqa: E402
    ImproperList,
    Syntax,
    datum_to_syntax,
    syntax_to_datum,
    syntax_to_list,
)


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


@define_prim("local-expand", 1, 3)
def prim_local_expand(stx: Any, context: Any = None, stop_list: Any = None) -> Any:
    """Expand ``stx`` with the expander of the compile in progress (§2.2)."""
    ctx_name = context.name if isinstance(context, v.Symbol) else "expression"
    stops: list[Syntax] = []
    if stop_list is not None and stop_list is not False:
        stops = v.to_list(stop_list)
    return current_expander().local_expand(stx, ctx_name, stops)


_SYNTAX: dict[str, PrimSpec] = {
    "syntax?": (lambda x: isinstance(x, Syntax), 1, 1),
    "identifier?": (lambda x: isinstance(x, Syntax) and x.is_identifier(), 1, 1),
    "free-identifier=?": (free_identifier_eq, 2, 2),
    "bound-identifier=?": (bound_identifier_eq, 2, 2),
}


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


# --- error handling (with-handlers support) ----------------------------------


@define_prim("exn-message", 1, 1)
def prim_exn_message(e: Any) -> str:
    if not isinstance(e, RuntimeReproError):
        raise WrongTypeError("exn-message", "exn?", e)
    return e.message


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


@define_prim("exn?", 1, 1)
def prim_is_exn(x: Any) -> bool:
    return isinstance(x, RuntimeReproError)


# --- the kernel table ---------------------------------------------------------

#: every ``#%kernel`` primitive, read-only: the typed languages' support
#: (add-type!, typed-context?, contract, ...), promises for the lazy
#: language, structs and quasisyntax templates come from their own modules
PRIMITIVES: Mapping[str, v.Primitive] = primitive_table(
    _DEFINED, _NUMERIC, _UNSAFE, _EQUALITY, _LISTS, _SYMBOLS_AND_CHARS,
    _STRINGS, _VECTORS, _BOXES_AND_HASHES, _CONTROL, _TIME, _SYNTAX,
    typed_prims.PRIMITIVE_SPECS, promises.PRIMITIVE_SPECS,
    structs.PRIMITIVE_SPECS, quasisyntax.PRIMITIVE_SPECS,
)

#: ``(checked name, operand count)`` -> the ``unsafe-*`` primitives whose
#: records replace that call, in table order: the optimizers' view
REPLACEMENTS: Mapping[tuple[str, int], tuple[v.Primitive, ...]] = MappingProxyType({
    call: tuple(p for p in PRIMITIVES.values() if call in p.replaces)
    for call in dict.fromkeys(c for p in PRIMITIVES.values() for c in p.replaces)
})
