"""Syntax objects, scopes, source locations, and bindings."""

from repro.syn.binding import (
    Binding,
    CoreFormBinding,
    LocalBinding,
    ModuleBinding,
    bind,
    bind_identifier,
    bound_identifier_eq,
    free_identifier_eq,
    resolve,
    resolve_or_raise,
)
from repro.syn.scopes import EMPTY_SCOPES, Scope, ScopeSet
from repro.syn.srcloc import NO_SRCLOC, SrcLoc
from repro.syn.syntax import (
    ImproperList,
    Syntax,
    VectorDatum,
    datum_to_syntax,
    datum_to_value,
    syntax_to_datum,
    syntax_to_list,
    write_datum,
)

__all__ = [
    "Binding", "CoreFormBinding", "LocalBinding", "ModuleBinding", "bind",
    "bind_identifier", "bound_identifier_eq", "free_identifier_eq",
    "resolve", "resolve_or_raise",
    "EMPTY_SCOPES", "Scope", "ScopeSet", "NO_SRCLOC", "SrcLoc",
    "ImproperList", "Syntax", "VectorDatum", "datum_to_syntax",
    "datum_to_value", "syntax_to_datum", "syntax_to_list", "write_datum",
]
