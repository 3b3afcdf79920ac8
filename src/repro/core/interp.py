"""Procedure application with trampolined tail calls.

The object language guarantees proper tail calls (benchmarks are written with
tail-recursive loops, as Scheme programs are). Compiled code in tail position
returns a :class:`TailCall` record instead of recursing; the driver loop in
:func:`apply_procedure` unwinds it, keeping the Python stack flat.

Resource governance (:mod:`repro.guard`) hooks in here: when the current
Runtime carries a :class:`~repro.guard.Budget`, applications take a second
trampoline loop inlined in :func:`apply_procedure` that charges one *step*
per closure invocation (tail calls included — each trampoline iteration is
a step) and performs the amortized deadline/cancellation checkpoint.

:func:`apply_ungoverned` is the one ungoverned loop. Code generators that
know the guard when they build their code bind it directly: the interp
:class:`~repro.core.compile.Compiler` picks it for application sites when
it compiles under no guard, and the pyc backend's ``link_unit`` binds it
at link time (DESIGN §8, §9). Such sites skip the guard context-variable
read; :func:`apply_procedure`, the entry for everything else, reads it
once and hands ungoverned applications to the same loop.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ArityError, ContractViolation, RuntimeReproError
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
    """Apply a non-closure callable (shared by both trampolines)."""
    t = type(fn)
    if t is Primitive:
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

    The governed trampoline is inlined below rather than delegated: an
    extra Python frame per application costs more than all of the charging
    arithmetic combined, and applications are the platform's hottest path.
    The per-step cost under a budget is one slot increment and one integer
    compare; ``checkpoint`` (clock read, cancellation flag, step-limit
    verdict) runs every ``CHECK_INTERVAL`` steps. Those same two lines are
    what a bytecode backend would inline into emitted function prologues.
    """
    guard = current_guard()
    if guard is None:
        return apply_ungoverned(fn, args)
    max_depth = guard.max_depth
    alloc = guard.allocations is not None
    while True:
        t = type(fn)
        if t is Closure or t is PyClosure:
            steps = guard.steps_used + 1
            guard.steps_used = steps
            if steps >= guard.next_check:
                guard.checkpoint(fn.name)
            if t is Closure:
                env = (_make_frame(fn, args), fn.env)
                body = fn.body
            else:
                env = _make_frame(fn, args)
                body = None
            if max_depth is None:
                result = fn.fn(*env) if body is None else body(env)
            else:
                # tail bounces balance the +1/-1 within this loop, so
                # `depth` tracks true (non-tail) nesting
                depth = guard.depth + 1
                guard.depth = depth
                if depth > max_depth:
                    guard._exhaust(
                        "depth", "G003",
                        f"evaluation exceeded its recursion-depth budget "
                        f"of {max_depth}",
                        fn.name,
                    )
                try:
                    result = fn.fn(*env) if body is None else body(env)
                finally:
                    guard.depth = depth - 1
            if type(result) is TailCall:
                fn = result.fn
                args = result.args
                continue
            return result
        if alloc and type(fn) is Primitive and fn.allocates:
            guard.charge_alloc()
        return _apply_other(fn, args)


def apply_ungoverned(fn: Any, args: list[Any]) -> Any:
    """Apply ``fn`` to ``args``, draining tail calls, charging nothing.

    Bound in place of :func:`apply_procedure` by code compiled or linked
    for an ungoverned Runtime: the guard is fixed for the whole run, so the
    per-application context-variable read is paid once, at compile or link
    time. Closures of both backends interoperate in this one loop.
    """
    while True:
        t = type(fn)
        if t is Closure:
            result = fn.body((_make_frame(fn, args), fn.env))
        elif t is PyClosure:
            result = fn.fn(*_make_frame(fn, args))
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


def tail_ungoverned(fn: Any, args: list[Any]) -> Any:
    """:func:`tail_apply` for code bound to :func:`apply_ungoverned`."""
    t = type(fn)
    if t is Closure or t is PyClosure:
        return TailCall(fn, args)
    return apply_ungoverned(fn, args)
