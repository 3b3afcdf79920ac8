"""Property: each two-operand entry is its variadic primitive at two operands.

The kernel records of ``+ - * / < <= > >= =`` (``repro.runtime.primitives``)
name, as ``Primitive.binary``, the function both backends call at a
two-operand site instead of the primitive's ``*args`` implementation. For every operation and every ordered
pair from the edge-value operand pool, the entry and ``Primitive.fn`` must
return the same value (compared as ``eqv?`` does, so ``-0.0`` is not
``0.0`` and ``+nan.0`` is itself) or raise the same exception type with the
same message, and charge the same ``generic_dispatches``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from repro.reader.reader import classify_atom
from repro.runtime import numerics as num
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.stats import Stats, use_stats
from repro.syn.srcloc import NO_SRCLOC

from tests.properties.test_prop_pyc_arith import BINARY, EDGE_OPERANDS, OPERANDS

#: the source operands of the arithmetic differential, as values, plus
#: exact rationals whose sums, differences, products and quotients
#: normalize to ``int``
POOL = (
    *[True if o == "#t" else "s" if o == '"s"' else classify_atom(o, NO_SRCLOC)
      for o in OPERANDS + EDGE_OPERANDS],
    False, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), complex(0.0, 0.0),
    -(10**400), math.nan,
)


def _key(value):
    """An identity for results: type plus ``repr`` tells ``-0.0`` from
    ``0.0`` and ``1`` from ``1.0``, and makes ``nan`` equal to itself."""
    return type(value), repr(value)


def _outcome(fn, a, b):
    with use_stats(Stats()) as stats:
        try:
            result = ("value", _key(fn(a, b)))
        except Exception as err:  # raw Python errors must agree too
            result = ("error", type(err), str(err))
    return result, stats.generic_dispatches


def test_table_covers_the_binary_operations():
    with_entry = [prim for prim in PRIMITIVES.values() if prim.binary is not None]
    assert {prim.name for prim in with_entry} == set(BINARY)
    for prim in with_entry:
        assert PRIMITIVES[prim.name] is prim


@pytest.mark.parametrize("op", BINARY)
def test_binary_entry_agrees_with_variadic_primitive(op):
    prim = PRIMITIVES[op]
    entry = prim.binary
    mismatches = []
    for a, b in itertools.product(POOL, repeat=2):
        expected = _outcome(prim.fn, a, b)
        got = _outcome(entry, a, b)
        if got != expected:
            mismatches.append((a, b, expected, got))
    assert not mismatches, "\n".join(
        f"({op} {a!r} {b!r})\n  variadic: {exp}\n  binary:   {got}"
        for a, b, exp, got in mismatches[:10]
    )


def test_pool_reaches_the_edges():
    keys = {_key(v) for v in POOL}
    for value in (True, False, "s", Fraction(1, 2), complex(1, 2), 10**400,
                  math.inf, -math.inf, math.nan, -0.0):
        assert _key(value) in keys, value


@pytest.mark.parametrize("pred", [num.is_number, num.is_real])
def test_tower_predicates_reject_booleans(pred):
    assert not pred(True)
    assert not pred(False)
    assert not pred("s")
    assert not pred(None)
    for value in (0, -(10**400), Fraction(1, 3), 1.5, math.nan, -0.0):
        assert pred(value), value


def test_complex_is_a_number_but_not_real():
    assert num.is_number(complex(1, 2))
    assert not num.is_real(complex(1, 2))
