"""Kernel primitives backing the typed languages' compile-time machinery.

These are the object-language-visible pieces of §5 and §6:

- ``add-type!`` / ``lookup-type`` — the identifier-keyed type environment of
  the *current compilation's* fresh store. The compiled form of a typed
  module contains ``(begin-for-syntax (add-type! (quote-syntax n) 'ty))``
  declarations; replaying them at visit time populates each client
  compilation's environment (§5).
- ``typed-context?`` — reads the §6.2 flag from the current compilation's
  store. Because every compilation starts with a fresh store, "untyped
  modules have no way to access it" — only a typed ``#%module-begin`` sets
  it, so export indirections expanded during untyped compilations always see
  ``#f`` and choose the contracted variant.
- ``type->contract`` and ``contract`` — §6.1's runtime contract generation.

All of these are ordinary primitives: :data:`PRIMITIVE_SPECS` lists them,
and ``repro.runtime.primitives`` folds that table into the kernel's.
"""

from __future__ import annotations

from typing import Any

from repro.errors import WrongTypeError
from repro.expander.env import current_context
from repro.runtime.values import VOID, Pair, Symbol, to_list
from repro.syn.binding import resolve, resolve_or_raise
from repro.syn.srcloc import SrcLoc
from repro.syn.syntax import Syntax


def prim_add_type(ident: Any, serialized: Any) -> Any:
    from repro.langs.typed_common import env as tenv
    from repro.langs.typed_common.types import parse_type_datum

    if not (isinstance(ident, Syntax) and ident.is_identifier()):
        raise WrongTypeError("add-type!", "identifier syntax", ident)
    binding = resolve_or_raise(ident, 0)
    tenv.add_type(binding, parse_type_datum(serialized), current_context())
    return VOID


def prim_lookup_type(ident: Any) -> Any:
    from repro.langs.typed_common import env as tenv
    from repro.langs.typed_common.types import serialize_to_value

    if not (isinstance(ident, Syntax) and ident.is_identifier()):
        raise WrongTypeError("lookup-type", "identifier syntax", ident)
    binding = resolve(ident, 0)
    if binding is None:
        return False
    t = tenv.lookup_type(binding, current_context())
    if t is None:
        return False
    return serialize_to_value(t)


def prim_typed_context(*_args: Any) -> bool:
    from repro.langs.typed_common import env as tenv

    return tenv.typed_context_flag(current_context())[0]


def prim_type_to_contract(serialized: Any) -> Any:
    from repro.langs.typed_common.contracts_gen import type_to_contract
    from repro.langs.typed_common.types import parse_type_datum

    return type_to_contract(parse_type_datum(serialized))


def prim_contract(
    c: Any, value: Any, positive: Any, negative: Any, loc: Any = None
) -> Any:
    from repro.contracts.contract import Contract, propagate_srcloc

    if not isinstance(c, Contract):
        raise WrongTypeError("contract", "contract?", c)

    def party(x: Any) -> str:
        return x.name if isinstance(x, Symbol) else str(x)

    # optional 5th argument: a quoted (source line column) list naming
    # the boundary, stamped onto the contract so violations carry a srcloc
    srcloc = _parse_srcloc_datum(loc)
    if srcloc is not None:
        propagate_srcloc(c, srcloc)
    return c.attach(value, party(positive), party(negative))


def _parse_srcloc_datum(loc: Any) -> Any:
    if not isinstance(loc, Pair):
        return None
    try:
        source, line, column = to_list(loc)
    except (ValueError, TypeError):
        return None
    if not (isinstance(source, str) and isinstance(line, int) and isinstance(column, int)):
        return None
    return SrcLoc(source, line, column)


def prim_declare_named_type(name: Any, serialized: Any) -> Any:
    from repro.langs.typed_common.types import NAMED_TYPES_STORE, parse_type_datum

    if not isinstance(name, Symbol):
        raise WrongTypeError("declare-named-type!", "symbol?", name)
    ctx = current_context()
    ctx.store(NAMED_TYPES_STORE, dict)[name.name] = parse_type_datum(serialized)
    return VOID


#: the kernel primitives behind the typed languages' compile-time machinery
PRIMITIVE_SPECS = {
    "declare-named-type!": (prim_declare_named_type, 2, 2),
    "add-type!": (prim_add_type, 2, 2),
    "lookup-type": (prim_lookup_type, 1, 1),
    "typed-context?": (prim_typed_context, 0, 0),
    "type->contract": (prim_type_to_contract, 1, 1),
    "contract": (prim_contract, 4, 5),
}
