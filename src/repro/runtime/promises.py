"""Promises (delayed computations) — kernel support for the lazy language."""

from __future__ import annotations

from typing import Any

from repro.core.interp import apply_procedure
from repro.runtime.values import Primitive


class Promise:
    """A memoized delayed computation."""

    __slots__ = ("thunk", "value", "forced")

    def __init__(self, thunk: Any) -> None:
        self.thunk = thunk
        self.value = None
        self.forced = False

    def __repr__(self) -> str:
        return f"#<promise{'!' if self.forced else ''}>"


def force(value: Any) -> Any:
    while isinstance(value, Promise):
        if not value.forced:
            value.value = force(apply_procedure(value.thunk, []))
            value.forced = True
            value.thunk = None
        value = value.value
    return value


#: constructors stay lazy (so infinite structures work, as in Lazy Racket)
_LAZY_CONSTRUCTORS = frozenset({"cons", "list", "vector", "box"})


def prim_lazy_apply(fn: Any, *args: Any) -> Any:
    fn = force(fn)
    if isinstance(fn, Primitive) and fn.name not in _LAZY_CONSTRUCTORS:
        # other primitives are strict (as in Barzilay & Clements's
        # Lazy Racket)
        return apply_procedure(fn, [force(a) for a in args])
    return apply_procedure(fn, list(args))


#: the kernel primitives backing ``#lang lazy``
PRIMITIVE_SPECS = {
    "make-promise": (Promise, 1, 1),
    "force": (force, 1, 1),
    "lazy-apply": (prim_lazy_apply, 1),
    "promise?": (lambda x: isinstance(x, Promise), 1, 1),
}
