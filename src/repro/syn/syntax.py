"""Syntax objects: Racket's attributed ASTs (§2.2 of the paper).

A :class:`Syntax` wraps a datum with

- a **scope set** (hygiene information, see :mod:`repro.syn.scopes`),
- a **source location**, and
- **syntax properties** — the out-of-band key/value metadata that the paper's
  ``define:`` uses to smuggle type annotations past the host's ``define``
  (§3.1). Properties are preserved by every scope operation and by
  ``datum->syntax`` when re-wrapping existing syntax.

The wrapped datum ``e`` is one of:

- an atom: :class:`~repro.runtime.values.Symbol`, ``bool``, ``int``,
  ``float``, ``Fraction``, ``complex``, ``str``, :class:`Char`,
  :class:`Keyword`;
- a ``tuple`` of child syntax objects (a proper list);
- an :class:`ImproperList` (a dotted list);
- a :class:`VectorDatum` (a ``#(...)`` literal).

Syntax objects are immutable; all operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Union

from repro.syn.scopes import EMPTY_SCOPES, Scope, ScopeSet
from repro.syn.scopes import add_scope as scopes_add
from repro.syn.scopes import flip_scope as scopes_flip
from repro.syn.scopes import remove_scope as scopes_remove
from repro.syn.srcloc import NO_SRCLOC, SrcLoc
from repro.runtime.values import Char, Keyword, Symbol

Atom = Union[Symbol, Keyword, bool, int, float, Fraction, complex, str, Char]

_EMPTY_PROPS: dict[Any, Any] = {}


@dataclass(frozen=True, slots=True)
class ImproperList:
    """The datum of a dotted list ``(a b . c)``: items ``(a, b)``, tail ``c``."""

    items: tuple["Syntax", ...]
    tail: "Syntax"


@dataclass(frozen=True, slots=True)
class VectorDatum:
    """The datum of a vector literal ``#(a b c)``."""

    items: tuple["Syntax", ...]


class Syntax:
    __slots__ = ("e", "scopes", "srcloc", "props")

    def __init__(
        self,
        e: Any,
        scopes: ScopeSet = EMPTY_SCOPES,
        srcloc: SrcLoc = NO_SRCLOC,
        props: Optional[dict[Any, Any]] = None,
    ) -> None:
        self.e = e
        self.scopes = scopes
        self.srcloc = srcloc
        self.props = props if props else _EMPTY_PROPS

    # -- predicates -----------------------------------------------------

    def is_identifier(self) -> bool:
        return isinstance(self.e, Symbol)

    def is_list(self) -> bool:
        return isinstance(self.e, tuple)

    # -- properties (the paper's syntax-property-put / -get) -------------

    def property_put(self, key: Any, value: Any) -> "Syntax":
        new_props = dict(self.props)
        new_props[key] = value
        return Syntax(self.e, self.scopes, self.srcloc, new_props)

    def property_get(self, key: Any, default: Any = None) -> Any:
        return self.props.get(key, default)

    # -- scope operations -------------------------------------------------

    def _map_scopes(self, fn: Callable[[ScopeSet], ScopeSet]) -> "Syntax":
        e = self.e
        if isinstance(e, tuple):
            new_e: Any = tuple(child._map_scopes(fn) for child in e)
        elif isinstance(e, ImproperList):
            new_e = ImproperList(
                tuple(child._map_scopes(fn) for child in e.items),
                e.tail._map_scopes(fn),
            )
        elif isinstance(e, VectorDatum):
            new_e = VectorDatum(tuple(child._map_scopes(fn) for child in e.items))
        else:
            new_e = e
        return Syntax(new_e, fn(self.scopes), self.srcloc, self.props)

    def add_scope(self, scope: Scope) -> "Syntax":
        return self._map_scopes(lambda s: scopes_add(s, scope))

    def remove_scope(self, scope: Scope) -> "Syntax":
        return self._map_scopes(lambda s: scopes_remove(s, scope))

    def flip_scope(self, scope: Scope) -> "Syntax":
        return self._map_scopes(lambda s: scopes_flip(s, scope))

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"#<syntax {write_datum(syntax_to_datum(self))}>"


# --- construction -------------------------------------------------------


def datum_to_syntax(
    ctx: Optional[Syntax],
    datum: Any,
    srcloc: Optional[SrcLoc] = None,
    props: Optional[dict[Any, Any]] = None,
) -> Syntax:
    """Convert a datum to syntax, using ``ctx``'s scopes for new parts.

    Existing :class:`Syntax` inside ``datum`` is left untouched (its scopes
    and properties are preserved) — this is what lets Python-implemented
    macros mix user subforms into freshly built templates hygienically.
    Python ``list``/``tuple`` become proper-list syntax.
    """
    scopes = ctx.scopes if ctx is not None else EMPTY_SCOPES
    loc = srcloc if srcloc is not None else (ctx.srcloc if ctx is not None else NO_SRCLOC)

    def convert(d: Any) -> Syntax:
        if isinstance(d, Syntax):
            return d
        if isinstance(d, (list, tuple)):
            return Syntax(tuple(convert(x) for x in d), scopes, loc, props)
        if isinstance(d, ImproperList):
            return Syntax(
                ImproperList(tuple(convert(x) for x in d.items), convert(d.tail)),
                scopes,
                loc,
                props,
            )
        if isinstance(d, VectorDatum):
            return Syntax(VectorDatum(tuple(convert(x) for x in d.items)), scopes, loc, props)
        if isinstance(d, str) or _is_atom(d):
            return Syntax(d, scopes, loc, props)
        raise TypeError(f"datum->syntax: cannot convert {d!r}")

    return convert(datum)


def _is_atom(d: Any) -> bool:
    return isinstance(d, (Symbol, Keyword, bool, int, float, Fraction, complex, Char))


def syntax_to_datum(stx: Syntax) -> Any:
    """Strip all syntax wrappers, producing a plain datum tree."""
    e = stx.e
    if isinstance(e, tuple):
        return tuple(syntax_to_datum(c) for c in e)
    if isinstance(e, ImproperList):
        return ImproperList(
            tuple(datum_to_syntax(None, syntax_to_datum(c)) for c in e.items),
            datum_to_syntax(None, syntax_to_datum(e.tail)),
        )
    if isinstance(e, VectorDatum):
        return VectorDatum(tuple(datum_to_syntax(None, syntax_to_datum(c)) for c in e.items))
    return e


def syntax_to_list(stx: Syntax) -> Optional[list[Syntax]]:
    """The paper's ``syntax->list``: children of a proper-list syntax, else None."""
    if isinstance(stx.e, tuple):
        return list(stx.e)
    return None


_SYNTHETIC_SOURCES = ("<template>", "<generated>")


def best_srcloc(stx: Any) -> Optional[SrcLoc]:
    """The most useful source location in a syntax tree.

    The node's own location, unless it is synthetic (template- or
    expander-introduced); then the first real location found among its
    descendants — template fills retain the use site's sub-syntax, so a
    macro-produced wrapper usually contains user syntax that still points
    at the program."""
    loc = getattr(stx, "srcloc", None)
    if loc is not None and loc.source not in _SYNTHETIC_SOURCES:
        return loc
    e = getattr(stx, "e", None)
    children: tuple = ()
    if isinstance(e, tuple):
        children = e
    elif isinstance(e, ImproperList):
        children = (*e.items, e.tail)
    elif isinstance(e, VectorDatum):
        children = e.items
    for child in children:
        found = best_srcloc(child)
        if found is not None and found.source not in _SYNTHETIC_SOURCES:
            return found
    return loc


# --- datum printing (for error messages and tests) ------------------------


def write_datum(d: Any) -> str:
    from repro.runtime.printing import write_value

    if isinstance(d, tuple):
        return "(" + " ".join(write_datum(x) for x in d) + ")"
    if isinstance(d, ImproperList):
        items = " ".join(write_datum(syntax_to_datum(x)) for x in d.items)
        return f"({items} . {write_datum(syntax_to_datum(d.tail))})"
    if isinstance(d, VectorDatum):
        return "#(" + " ".join(write_datum(syntax_to_datum(x)) for x in d.items) + ")"
    if isinstance(d, Syntax):
        return write_datum(syntax_to_datum(d))
    return write_value(d)


# --- datum -> runtime value (used by `quote`) -----------------------------


def datum_to_value(d: Any) -> Any:
    """Convert a stripped datum tree to runtime values (tuples become pairs)."""
    from repro.runtime.values import NULL, MVector, Pair

    if isinstance(d, Syntax):
        return datum_to_value(syntax_to_datum(d))
    if isinstance(d, tuple):
        result: Any = NULL
        for item in reversed(d):
            result = Pair(datum_to_value(item), result)
        return result
    if isinstance(d, ImproperList):
        result = datum_to_value(d.tail)
        for item in reversed(d.items):
            result = Pair(datum_to_value(item), result)
        return result
    if isinstance(d, VectorDatum):
        return MVector([datum_to_value(x) for x in d.items])
    return d
