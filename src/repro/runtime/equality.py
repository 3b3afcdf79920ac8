"""``eq?``, ``eqv?``, and ``equal?`` for object-language values.

Each decides by the operands' exact types first: values of different types
are never equal under any of the three (``#t`` is not ``1``, ``1`` is not
``1.0``), so a failing comparison — a match clause testing a symbol against
each ``(quote name)`` pattern in turn — costs two ``type`` calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from repro.runtime.structs import StructInstance
from repro.runtime.values import Box, Char, MVector, Pair


def eq(a: Any, b: Any) -> bool:
    """Pointer identity, with the small-value exceptions Racket guarantees."""
    if a is b:
        return True
    # Python may or may not intern small ints/strings; make the object-language
    # behaviour deterministic: eq? on equal fixnums, chars and keywords is #t.
    t = type(a)
    if t is not type(b):
        return False
    if t is int:
        return a == b
    if t is Char:
        return a.value == b.value
    return False


def eqv(a: Any, b: Any) -> bool:
    """``eq?`` plus numeric equality on same-exactness numbers."""
    if a is b:
        return True
    t = type(a)
    if t is not type(b):
        return False
    if t is int or t is Fraction or t is complex:
        return a == b
    if t is float:
        return a == b or (a != a and b != b)  # +nan.0 is eqv? to itself
    if t is Char:
        return a.value == b.value
    return False


def equal(a: Any, b: Any) -> bool:
    """Structural equality on pairs, vectors, strings, and boxes."""
    if a is b:
        return True
    t = type(a)
    if t is not type(b):
        return False
    if t is Pair:
        while type(a) is Pair and type(b) is Pair:
            if not equal(a.car, b.car):
                return False
            a = a.cdr
            b = b.cdr
        return equal(a, b)
    if t is str:
        return a == b
    if t is MVector:
        if len(a.items) != len(b.items):
            return False
        return all(equal(x, y) for x, y in zip(a.items, b.items))
    if t is Box:
        return equal(a.value, b.value)
    if t is StructInstance:
        return (
            a.descriptor is b.descriptor
            and a.descriptor.transparent
            and all(equal(x, y) for x, y in zip(a.fields, b.fields))
        )
    return eqv(a, b)
