"""``eq?``, ``eqv?`` and ``equal?`` decide by type first, with the old answers.

The runtime's equality functions test the operands' exact types before
anything else. The reference below is the earlier isinstance-chained
version, kept verbatim: on every pair drawn from a pool of values of every
kind (and on nested values built from it) the two must agree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import values as v
from repro.runtime.equality import eq, equal, eqv
from repro.runtime.structs import StructInstance, StructTypeDescriptor


# -- the reference: the isinstance-chained functions, verbatim --------------

def ref_eq(a: Any, b: Any) -> bool:
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, v.Char) and isinstance(b, v.Char):
        return a.value == b.value
    return False


def ref_eqv(a: Any, b: Any) -> bool:
    if ref_eq(a, b):
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, complex) and isinstance(b, complex):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a is b
    return False


def ref_equal(a: Any, b: Any) -> bool:
    if ref_eqv(a, b):
        return True
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, v.Pair) and isinstance(b, v.Pair):
        while isinstance(a, v.Pair) and isinstance(b, v.Pair):
            if not ref_equal(a.car, b.car):
                return False
            a = a.cdr
            b = b.cdr
        return ref_equal(a, b)
    if isinstance(a, v.MVector) and isinstance(b, v.MVector):
        if len(a.items) != len(b.items):
            return False
        return all(ref_equal(x, y) for x, y in zip(a.items, b.items))
    if isinstance(a, v.Box) and isinstance(b, v.Box):
        return ref_equal(a.value, b.value)
    if (
        isinstance(a, StructInstance)
        and isinstance(b, StructInstance)
        and a.descriptor is b.descriptor
        and a.descriptor.transparent
    ):
        return all(ref_equal(x, y) for x, y in zip(a.fields, b.fields))
    return False


# -- the pool ---------------------------------------------------------------

TRANSPARENT = StructTypeDescriptor("posn", 2, True)
OPAQUE = StructTypeDescriptor("secret", 2, False)
NAN = float("nan")


def _list(*items: Any) -> Any:
    out: Any = v.NULL
    for item in reversed(items):
        out = v.Pair(item, out)
    return out


def _pool() -> list[Any]:
    """Values of every kind, each kind twice over where a fresh copy can be
    equal without being identical."""
    atoms = [
        True, False, 0, 1, -1, 2**70, 2**70 + 0, 1.0, 0.0, -0.0, NAN,
        float("nan"), float("inf"), Fraction(1, 3), Fraction(2, 6),
        Fraction(1, 2), 1 + 2j, complex(1, 2), complex(NAN, 0),
        v.Char("a"), v.Char("a"), v.Char("b"), "ab", "".join(["a", "b"]),
        "", v.Symbol("add"), v.Symbol("sub"), v.Keyword("k"), v.NULL, v.VOID,
    ]
    composites = []
    for _ in range(2):  # two structurally equal, non-identical copies
        composites += [
            _list(1, "x", v.Symbol("add")),
            v.Pair(1, 2),
            v.Pair(1, 2.0),
            v.MVector([1, _list(2, 3)]),
            v.MVector([1]),
            v.MVector([]),
            v.Box(_list(1)),
            v.Box(1.0),
            StructInstance(TRANSPARENT, [1, "y"]),
            StructInstance(OPAQUE, [1, "y"]),
        ]
    composites.append(StructInstance(TRANSPARENT, [1, "z"]))
    return atoms + composites


POOL = _pool()


def test_every_pair_of_the_pool_agrees():
    for a, b in itertools.product(POOL, repeat=2):
        assert eq(a, b) is ref_eq(a, b), (a, b)
        assert eqv(a, b) is ref_eqv(a, b), (a, b)
        assert equal(a, b) is ref_equal(a, b), (a, b)


def test_the_pool_has_equal_but_not_eqv_values():
    # the pool exercises every layer: pairs that only equal? relates
    assert any(equal(a, b) and not eqv(a, b) for a, b in itertools.product(POOL, repeat=2))
    assert any(eqv(a, b) and not eq(a, b) for a, b in itertools.product(POOL, repeat=2))


_leaves = st.sampled_from(POOL[:30])
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(v.Pair, inner, inner),
        st.builds(lambda items: v.MVector(list(items)), st.lists(inner, max_size=3)),
        st.builds(v.Box, inner),
        st.builds(lambda f: StructInstance(TRANSPARENT, list(f)),
                  st.tuples(inner, inner)),
    ),
    max_leaves=8,
)


@settings(max_examples=400, derandomize=True)
@given(_values, _values)
def test_nested_values_agree(a, b):
    assert eq(a, b) is ref_eq(a, b)
    assert eqv(a, b) is ref_eqv(a, b)
    assert equal(a, b) is ref_equal(a, b)


def _copy(x: Any) -> Any:
    """A structurally equal copy sharing no composite with ``x``."""
    if type(x) is v.Pair:
        return v.Pair(_copy(x.car), _copy(x.cdr))
    if type(x) is v.MVector:
        return v.MVector([_copy(y) for y in x.items])
    if type(x) is v.Box:
        return v.Box(_copy(x.value))
    if type(x) is StructInstance:
        return StructInstance(x.descriptor, [_copy(y) for y in x.fields])
    return x


@settings(max_examples=200, derandomize=True)
@given(_values)
def test_a_nested_value_and_its_copy_agree(a):
    b = _copy(a)
    assert eq(a, b) is ref_eq(a, b)
    assert eqv(a, b) is ref_eqv(a, b)
    assert equal(a, b) is ref_equal(a, b)
