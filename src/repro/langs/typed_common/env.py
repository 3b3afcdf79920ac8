"""Compile-time type environments, keyed by binding (§4.3).

"Using an identifier-keyed table allows reuse of the Racket binding structure
without having to reimplement variable renaming or environments." The table
lives in the compilation's fresh store (``ExpandContext.stores``), so type
information never leaks between compilations except through the explicit
replay mechanism of §5.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.expander.env import ExpandContext, current_context
from repro.langs.typed_common.types import Type
from repro.syn.binding import Binding

TYPES_STORE = "typed:types"
EXPR_TYPES_STORE = "typed:expr-types"
TYPED_CONTEXT_STORE = "typed:context?"


def type_table(ctx: Optional[ExpandContext] = None) -> dict[Any, Type]:
    ctx = ctx or current_context()
    return ctx.store(TYPES_STORE, dict)


def expr_types(ctx: Optional[ExpandContext] = None) -> dict[int, Type]:
    """Types computed for expressions, keyed by syntax-object identity.

    This is the channel between the typechecker and the optimizer: the
    checker records every sub-expression's validated type here and the
    optimizer's ``type-of`` reads it back (§7.1: the optimizer uses "the
    validated and still accessible type information").
    """
    ctx = ctx or current_context()
    return ctx.store(EXPR_TYPES_STORE, dict)


def typed_context_flag(ctx: Optional[ExpandContext] = None) -> list[bool]:
    """The §6.2 flag: a one-element mutable cell in the fresh store."""
    ctx = ctx or current_context()
    return ctx.store(TYPED_CONTEXT_STORE, lambda: [False])


def add_type(binding: Binding, t: Type, ctx: Optional[ExpandContext] = None) -> None:
    type_table(ctx)[binding.key()] = t


def lookup_type(binding: Binding, ctx: Optional[ExpandContext] = None) -> Optional[Type]:
    return type_table(ctx).get(binding.key())

