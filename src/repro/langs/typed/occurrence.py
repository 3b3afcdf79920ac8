"""Occurrence typing (lite) — "Logical types for untyped languages"
(Tobin-Hochstadt & Felleisen 2010, cited by the paper as the full system's
type theory).

When an ``if`` test is a predicate applied to a variable reference —
``(if (null? l) A B)`` — the variable's type is *refined* in each branch:
in the then-branch to the part of its type satisfying the predicate, in the
else-branch to the rest. This is what makes idiomatic Scheme list code
typecheck::

    (: sum ((Listof Integer) -> Integer))
    (define (sum l)
      (if (null? l) 0 (+ (car l) (sum (cdr l)))))

and it feeds the optimizer: in the else branch ``l`` is known to be a
``Pairof``, so ``car``/``cdr`` lose their tag checks (§7.2's "eliminates
tag-checking made redundant by the typechecker").

Supported predicates: ``null?``, ``pair?``, ``flonum?``, ``exact-integer?``,
``number?``, ``real?``, ``string?``, ``boolean?``, ``symbol?``, ``char?``,
``vector?``, and ``not`` composed around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.parse import core_form_of
from repro.langs.typed_common import types as ty
from repro.modules.registry import KERNEL_PATH
from repro.syn.binding import Binding, ModuleBinding, resolve
from repro.syn.syntax import Syntax


@dataclass(frozen=True)
class Refinement:
    """Refined types for one variable in the two branches of an ``if``."""

    binding: Binding
    then_type: ty.Type
    else_type: ty.Type


def _restrict_list(t: ty.Type, to_null: bool) -> ty.Type:
    """Split a list-shaped type into its Null / Pairof parts."""
    if isinstance(t, ty.ListofType):
        if to_null:
            return ty.NULL_TYPE
        return ty.PairType(t.element, t)
    if isinstance(t, ty.UnionType):
        parts = [_restrict_list(m, to_null) for m in t.members]
        keep = [p for p in parts if p is not ty.NOTHING]
        if not keep:
            return ty.NOTHING
        return ty.make_union(keep)
    if isinstance(t, ty.BaseType) and t.name == "Null":
        return t if to_null else ty.NOTHING
    if isinstance(t, ty.PairType):
        return ty.NOTHING if to_null else t
    # unknown shape (e.g. Any): no refinement possible
    return t


def _restrict_base(t: ty.Type, base: ty.Type, positive: bool) -> ty.Type:
    """Refine ``t`` by a base-type predicate (e.g. flonum? -> Float)."""
    if positive:
        if ty.subtype(t, base):
            return t
        if isinstance(t, ty.UnionType):
            keep = [m for m in t.members if ty.subtype(m, base)]
            if keep:
                return ty.make_union(keep)
        if ty.subtype(base, t):
            return base  # e.g. t = Any / Number, predicate narrows
        return t
    # negative: remove the members covered by the predicate
    if isinstance(t, ty.UnionType):
        keep = [m for m in t.members if not ty.subtype(m, base)]
        if keep:
            return ty.make_union(keep)
        return ty.NOTHING
    if ty.subtype(t, base):
        return ty.NOTHING
    return t


def _list_refiner(to_null_then: bool) -> Callable[[ty.Type], tuple[ty.Type, ty.Type]]:
    def refine(t: ty.Type) -> tuple[ty.Type, ty.Type]:
        return (
            _restrict_list(t, to_null=to_null_then),
            _restrict_list(t, to_null=not to_null_then),
        )

    return refine


def _base_refiner(base: ty.Type) -> Callable[[ty.Type], tuple[ty.Type, ty.Type]]:
    def refine(t: ty.Type) -> tuple[ty.Type, ty.Type]:
        return (
            _restrict_base(t, base, positive=True),
            _restrict_base(t, base, positive=False),
        )

    return refine


#: predicate name -> how it splits a type into (then, else) parts
PREDICATE_REFINERS: dict[str, Callable[[ty.Type], tuple[ty.Type, ty.Type]]] = {
    "null?": _list_refiner(to_null_then=True),
    "pair?": _list_refiner(to_null_then=False),
    "flonum?": _base_refiner(ty.FLOAT),
    "exact-integer?": _base_refiner(ty.INTEGER),
    "number?": _base_refiner(ty.NUMBER),
    "real?": _base_refiner(ty.REAL),
    "string?": _base_refiner(ty.STRING),
    "boolean?": _base_refiner(ty.BOOLEAN),
    "symbol?": _base_refiner(ty.SYMBOL),
    "char?": _base_refiner(ty.CHAR),
}


def _kernel_name(ident: Syntax) -> Optional[str]:
    if not ident.is_identifier():
        return None
    binding = resolve(ident, 0)
    if isinstance(binding, ModuleBinding) and binding.module_path == KERNEL_PATH:
        return binding.name.name
    return None


def analyze_test(
    test: Syntax, current_type_of: Callable[[Binding], Optional[ty.Type]]
) -> Optional[Refinement]:
    """If ``test`` is ``(pred var)`` (possibly under ``not``), the refinement
    it implies; otherwise None."""
    negated = False
    node = test
    while True:
        if not (isinstance(node.e, tuple) and len(node.e) >= 2):
            return None
        head = node.e[0]
        if core_form_of(node, 0) != "#%plain-app":
            return None
        op, args = node.e[1], node.e[2:]
        name = _kernel_name(op)
        if name == "not" and len(args) == 1:
            negated = not negated
            node = args[0]
            # peel (#%plain-app not X): X may itself be an app or a variable
            if node.is_identifier():
                return None
            continue
        if name in PREDICATE_REFINERS and len(args) == 1 and args[0].is_identifier():
            binding = resolve(args[0], 0)
            if binding is None:
                return None
            current = current_type_of(binding)
            if current is None:
                return None
            then_t, else_t = PREDICATE_REFINERS[name](current)
            if negated:
                then_t, else_t = else_t, then_t
            return Refinement(binding, then_t, else_t)
        return None
