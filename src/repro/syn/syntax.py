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

Scope operations are lazy, as in Flatt's *Binding as Sets of Scopes*
(POPL 2016). ``add_scope``, ``remove_scope`` and ``flip_scope`` update only
the node's own scope set and return a :class:`_LazySyntax` that keeps the
unchanged datum plus the tuple of operations its children still owe. The
first read of ``e`` pushes those operations one level down (each child
becomes lazy in turn; children with equal scope sets share one new set)
and from then on the node is a plain :class:`Syntax`. A flip right after a
flip of the same scope cancels, so the syntax a macro passes through
untouched (flipped on the way in and on the way out) is never copied.
Pickling forces a node first and writes the state of an eagerly built one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

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
    # ``_pending`` is set only on a :class:`_LazySyntax`; a plain node
    # leaves it unset, so it pickles exactly its four public slots
    __slots__ = ("e", "scopes", "srcloc", "props", "_pending")

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

    # -- scope operations (lazy; see the module docstring) -----------------

    def add_scope(self, scope: Scope) -> "Syntax":
        return self._with_op((scopes_add, scope))

    def remove_scope(self, scope: Scope) -> "Syntax":
        return self._with_op((scopes_remove, scope))

    def flip_scope(self, scope: Scope) -> "Syntax":
        return self._with_op((scopes_flip, scope))

    def _with_op(self, op: tuple) -> "Syntax":
        return _rewrapped(self, (op,), {})

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"#<syntax {write_datum(syntax_to_datum(self))}>"


_CONTAINERS = (tuple, ImproperList, VectorDatum)

#: serializes forcing, so every reader of a shared node sees one ``e``
_FORCE_LOCK = threading.Lock()


class _LazySyntax(Syntax):
    """A container node whose children still owe it scope operations.

    ``scopes``, ``srcloc`` and ``props`` are final; ``e`` is unset and
    ``_pending`` holds ``(datum, ops)``: the datum as it was before the
    operations, and the operations in the order they were applied, each a
    ``(repro.syn.scopes function, scope)`` pair. The first read of ``e``
    pushes the operations one level down, stores the result in the slot
    and turns the node into a plain :class:`Syntax`. Only this subclass
    has a ``__getattr__``: on ``Syntax`` itself it would keep CPython from
    specializing any attribute read of any node, and ``stx.e`` is the
    expander's hottest read.
    """

    __slots__ = ()

    def __init__(
        self, datum: Any, ops: tuple, scopes: ScopeSet, srcloc: SrcLoc, props: dict
    ) -> None:
        self._pending = (datum, ops)
        self.scopes = scopes
        self.srcloc = srcloc
        self.props = props if props else _EMPTY_PROPS

    def __getattr__(self, name: str) -> Any:
        if name != "e":
            raise AttributeError(name)
        with _FORCE_LOCK:
            pending = getattr(self, "_pending", None)
            if pending is None:  # another thread forced it meanwhile
                return self.e
            datum, ops = pending
            e = _pushed(datum, ops)
            self.e = e
            del self._pending
            self.__class__ = Syntax
        return e

    def __reduce_ex__(self, protocol: Any) -> Any:
        # force first: the pickle then records a plain Syntax and the same
        # state an eagerly built node would have
        self.e
        return object.__reduce_ex__(self, protocol)


def _compose(before: tuple, ops: tuple) -> tuple:
    """``before`` then ``ops``; a flip right after a flip of the same scope
    cancels it."""
    out = list(before)
    for op in ops:
        if op[0] is scopes_flip and out and out[-1] == op:
            out.pop()
        else:
            out.append(op)
    return tuple(out)


def _rewrapped(stx: Syntax, ops: tuple, memo: dict) -> Syntax:
    """``stx`` with ``ops`` applied: a new scope set for the node, and
    ``ops`` owed by its children on top of whatever they owed already.
    ``memo`` maps old scope sets to new ones, so the children of one push
    that had equal sets share one new set object."""
    scopes = memo.get(stx.scopes)
    if scopes is None:
        scopes = stx.scopes
        for fn, scope in ops:
            scopes = fn(scopes, scope)
        memo[stx.scopes] = scopes
    pending = getattr(stx, "_pending", None)
    if pending is None:
        datum = stx.e
    else:
        datum, before = pending
        ops = _compose(before, ops)
    if ops and isinstance(datum, _CONTAINERS):
        return _LazySyntax(datum, ops, scopes, stx.srcloc, stx.props)
    return Syntax(datum, scopes, stx.srcloc, stx.props)


def _pushed(datum: Any, ops: tuple) -> Any:
    """``datum`` with ``ops`` pushed onto each child."""
    memo: dict[ScopeSet, ScopeSet] = {}
    if isinstance(datum, tuple):
        return tuple([_rewrapped(c, ops, memo) for c in datum])
    if isinstance(datum, ImproperList):
        items = tuple([_rewrapped(c, ops, memo) for c in datum.items])
        return ImproperList(items, _rewrapped(datum.tail, ops, memo))
    return VectorDatum(tuple([_rewrapped(c, ops, memo) for c in datum.items]))


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


_SYNTHETIC_SOURCE_NAMES = ("<template>", "<generated>")


def best_srcloc(stx: Any) -> Optional[SrcLoc]:
    """The most useful source location in a syntax tree.

    The node's own location, unless it is synthetic (template- or
    expander-introduced); then the first real location found among its
    descendants — template fills retain the use site's sub-syntax, so a
    macro-produced wrapper usually contains user syntax that still points
    at the program."""
    loc = getattr(stx, "srcloc", None)
    if loc is not None and loc.source not in _SYNTHETIC_SOURCE_NAMES:
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
        if found is not None and found.source not in _SYNTHETIC_SOURCE_NAMES:
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
