"""Properties of the kernel's primitive records (``repro.runtime.primitives``).

A record states facts that the pyc backend and the optimizers act on
without checking them at run time, so each fact is checked here against
the primitive's behaviour:

- a ``"bool"`` primitive returns a Python ``bool``: pyc uses it as an
  ``if`` test as it is;
- a ``"one"`` primitive never returns a ``Values`` object, even when one
  is among its operands: pyc skips the value-count check of a single-id
  binding of its result;
- an ``unsafe-*`` primitive agrees with every checked call its record
  says it replaces, on random operands of its rule group's type, wherever
  that checked call returns a value: the typed optimizer rewrites one into
  the other.

The first two run every primitive on every operand tuple drawn from a pool
with one value of each kind the kernel handles (plus a ``Values`` object).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import primitives
from repro.runtime import values as v
from repro.runtime.ports import capture_output
from repro.runtime.printing import write_value
from repro.runtime.stats import Stats, use_stats


def _hash() -> v.HashTable:
    table = v.HashTable()
    table.set(1, "one")
    return table


#: one maker per operand: mutators (``vector-set!``, ``hash-set!``) get a
#: fresh object each call. Pairs and vectors hold plain values only: an
#: unsafe accessor is ``"one"`` because the typed optimizer emits it only
#: on proven single values.
POOL = (
    lambda: 0, lambda: 1, lambda: 7, lambda: -3,
    lambda: 2.5, lambda: -0.0, lambda: math.nan,
    lambda: Fraction(1, 2), lambda: complex(1.5, -2.0),
    lambda: "a~a", lambda: v.Char("c"), lambda: v.Symbol("s"),
    lambda: True, lambda: False, lambda: v.NULL, lambda: v.VOID,
    lambda: v.from_list([1, 2.5, "b"]), lambda: v.MVector([1, 2.5, "b"]),
    lambda: v.Box(1), _hash,
    lambda: primitives.PRIMITIVES["values"],
    lambda: primitives.PRIMITIVES["identity"],
    lambda: v.Values((1, 2)),
)


def _operand_counts(prim: v.Primitive) -> range:
    """Up to three operand counts the primitive accepts, none above 3."""
    top = prim.arity_min + 2 if prim.arity_max is None else prim.arity_max
    return range(prim.arity_min, min(top, 3) + 1)


def _outside_domain(prim: v.Primitive, args: tuple) -> bool:
    # a zero step never ends a range, in Racket too
    return prim.name == "range" and len(args) == 3 and args[2] == 0


def _results(prim: v.Primitive):
    """Every value ``prim`` returns on the pool's operand tuples; a call
    that raises returned nothing."""
    for n in _operand_counts(prim):
        for makers in itertools.product(POOL, repeat=n):
            args = tuple(make() for make in makers)
            if _outside_domain(prim, args):
                continue
            try:
                yield args, prim.fn(*args)
            except Exception:
                continue


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Output into a string port, counters on a scratch Stats, and a
    scratch generator for ``random``, so other tests see none of it."""
    monkeypatch.setattr(primitives, "_RNG", random.Random(0))
    with capture_output(), use_stats(Stats()):
        yield


def _with(result: str) -> list[str]:
    return sorted(
        name for name, prim in primitives.PRIMITIVES.items()
        if prim.result == result
    )


@pytest.mark.parametrize("name", _with("bool"))
def test_bool_primitive_returns_a_bool(name):
    prim = primitives.PRIMITIVES[name]
    returned = 0
    for args, result in _results(prim):
        assert type(result) is bool, f"({name} {args!r}) returned {result!r}"
        returned += 1
    assert returned, f"no pool operands are in the domain of {name}"


@pytest.mark.parametrize("name", _with("one"))
def test_one_value_primitive_never_returns_values(name):
    prim = primitives.PRIMITIVES[name]
    returned = 0
    for args, result in _results(prim):
        assert not isinstance(result, v.Values), (
            f"({name} {args!r}) returned {result!r}"
        )
        returned += 1
    assert returned, f"no pool operands are in the domain of {name}"


# -- unsafe twins -------------------------------------------------------------

_ATOMS = st.one_of(
    st.integers(-5, 5), st.floats(width=64), st.text(max_size=2),
    st.sampled_from([v.NULL, v.VOID, True, False, v.Symbol("s")]),
)

#: a strategy per rule group for the operand list of a checked call of
#: ``n`` operands; a mutated vector is built once per call from its items
_DOMAINS = {
    "float": lambda n: st.lists(st.floats(width=64), min_size=n, max_size=n),
    "fixnum": lambda n: st.lists(st.integers(-(10**20), 10**20),
                                 min_size=n, max_size=n),
    "complex": lambda n: st.lists(
        st.builds(complex, st.floats(width=64), st.floats(width=64)),
        min_size=n, max_size=n,
    ),
    "pairs": lambda n: st.lists(st.builds(v.Pair, _ATOMS, _ATOMS),
                                min_size=n, max_size=n),
    "vectors": lambda n: st.tuples(
        st.lists(_ATOMS, max_size=4), st.integers(-2, 5), _ATOMS
    ).map(lambda t: [t[0], *t[1:n]]),
}


def _twins() -> list[tuple[str, str, int]]:
    return [
        (prim.name, checked, n)
        for prim in primitives.PRIMITIVES.values()
        for checked, n in prim.replaces
    ]


def _key(value):
    """What a program could observe of a value: its type and its printed
    form (which tells ``-0.0`` from ``0.0`` and makes NaN equal itself)."""
    return type(value), write_value(value)


def _call(prim: v.Primitive, args: list, extra: list) -> tuple:
    """The result of ``prim`` on ``args`` and then ``extra``, with
    ``args`` as they are after the call; a vector operand is built first."""
    args = [v.MVector(list(a)) if type(a) is list else a for a in args]
    result = prim.fn(*args, *extra)
    return _key(result), [_key(a) for a in args]


@pytest.mark.parametrize("unsafe, checked, n", _twins())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unsafe_twin_agrees_with_its_checked_primitive(unsafe, checked, n, data):
    twin = primitives.PRIMITIVES[unsafe]
    plain = primitives.PRIMITIVES[checked]
    args = data.draw(_DOMAINS[twin.rule](n))
    try:
        expected = _call(plain, args, [])
    except Exception:
        return  # outside the checked primitive's domain: no claim
    extra = []
    if n < twin.arity_min:
        # the constant the typed optimizer passes, in the group's type
        k = plain.against
        extra = [float(k) if twin.rule == "float" else k]
    assert _call(twin, args, extra) == expected, f"({checked} {args!r})"

