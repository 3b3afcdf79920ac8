"""Procedure application with trampolined tail calls.

The object language guarantees proper tail calls (benchmarks are written with
tail-recursive loops, as Scheme programs are). Compiled code in tail position
returns a :class:`TailCall` record instead of recursing; the driver loop in
:func:`apply_procedure` unwinds it, keeping the Python stack flat.

Resource governance (:mod:`repro.guard`) does not live here. A closure
compiled (interp) or linked (pyc) under a guard charges its own entry: one
*step*, then one depth level for the extent of its body, against the guard
active when it is entered (DESIGN §8). So :func:`apply_procedure` is the one
trampoline of both backends, governed or not, and applying a closure costs
the same in either mode; only an allocating primitive applied as a value
is charged here (:func:`_apply_other`).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ArityError, RuntimeReproError
from repro.guard.budget import current_guard
from repro.runtime.values import (
    Closure,
    ContractedProcedure,
    Primitive,
    Procedure,
    PyClosure,
)


class TailCall:
    __slots__ = ("fn", "args")

    def __init__(self, fn: Any, args: list[Any]) -> None:
        self.fn = fn
        self.args = args


#: marker for letrec variables referenced before initialization
class _Undefined:
    __slots__ = ()

    def __repr__(self) -> str:
        return "#<undefined>"


UNDEFINED = _Undefined()


def _make_frame(closure: Closure, args: list[Any]) -> list[Any]:
    n = closure.params
    if closure.rest:
        if len(args) < n:
            raise ArityError(
                f"{closure.name}: expected at least {n} arguments, got {len(args)}"
            )
        from repro.runtime.values import from_list

        frame = args[:n]
        frame.append(from_list(args[n:]))
        return frame
    if len(args) != n:
        raise ArityError(f"{closure.name}: expected {n} arguments, got {len(args)}")
    return args


def _apply_other(fn: Any, args: list[Any]) -> Any:
    """Apply a non-closure callable. An allocating primitive applied as a
    value (``(map cons ...)``) is charged here, since no compiled call
    site wraps it."""
    t = type(fn)
    if t is Primitive:
        if fn.allocates:
            guard = current_guard()
            if guard is not None and guard.track_allocations:
                guard.charge_alloc()
        if len(args) < fn.arity_min or (
            fn.arity_max is not None and len(args) > fn.arity_max
        ):
            raise ArityError(
                f"{fn.name}: arity mismatch, got {len(args)} arguments"
            )
        return fn.fn(*args)
    if t is ContractedProcedure:
        return fn.contract.apply(fn, args)
    if isinstance(fn, Procedure):  # pragma: no cover - future proc kinds
        raise RuntimeReproError(f"cannot apply {fn!r}")
    from repro.runtime.printing import write_value

    raise RuntimeReproError(f"application: not a procedure: {write_value(fn)}")


def apply_procedure(fn: Any, args: list[Any]) -> Any:
    """Apply ``fn`` to ``args``, draining tail calls.

    The one trampoline of both backends. It charges nothing: a closure
    compiled or linked under a guard charges its own entry (see the module
    docstring), so governed and ungoverned code share this loop. A call
    with exactly the parameter count of a closure without a rest
    parameter uses ``args`` as its frame; only the others take
    :func:`_make_frame`.
    """
    while True:
        t = type(fn)
        if t is Closure:
            if fn.rest or len(args) != fn.params:
                args = _make_frame(fn, args)
            result = fn.body((args, fn.env))
        elif t is PyClosure:
            if fn.rest or len(args) != fn.params:
                args = _make_frame(fn, args)
            result = fn.fn(*args)
        else:
            return _apply_other(fn, args)
        if type(result) is TailCall:
            fn = result.fn
            args = result.args
            continue
        return result


def tail_apply(fn: Any, args: list[Any]) -> Any:
    """Apply in tail position: defer closures to the caller's trampoline."""
    t = type(fn)
    if t is Closure or t is PyClosure:
        return TailCall(fn, args)
    return apply_procedure(fn, args)
