"""``quasisyntax`` (#`) and ``unsyntax`` (#,) — the paper's syntax-template
notation for procedural macros (used throughout its figures).

``#`(define ann-name #,rhs)`` builds a syntax object from the template,
evaluating ``#,``-escapes at transformer run time and splicing the resulting
syntax in; everything else keeps its lexical context exactly like
``quote-syntax``. Implemented as one kernel macro plus three runtime
primitives — no new core forms.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SyntaxExpansionError, WrongTypeError
from repro.runtime.values import NULL, Pair, Symbol, to_list
from repro.syn.syntax import ImproperList, Syntax, datum_to_syntax


class _Splice:
    """Marker produced by unsyntax-splicing escapes."""

    __slots__ = ("items",)

    def __init__(self, items: list[Syntax]) -> None:
        self.items = items


def qs_coerce(ctx: Any, value: Any) -> Syntax:
    """Coerce an escape's value to syntax, using the template's context."""
    if isinstance(value, Syntax):
        return value
    if isinstance(value, _Splice):  # pragma: no cover - defensive
        raise WrongTypeError("unsyntax", "a single syntax object", value)
    from repro.runtime.primitives import PRIMITIVES

    return PRIMITIVES["datum->syntax"].fn(ctx, value)


def qs_splice(value: Any) -> _Splice:
    if isinstance(value, Syntax):
        items = value.e
        if not isinstance(items, tuple):
            raise WrongTypeError("unsyntax-splicing", "a syntax list", value)
        return _Splice(list(items))
    if value is NULL or isinstance(value, Pair):
        out = []
        for item in to_list(value):
            if not isinstance(item, Syntax):
                item = qs_coerce(False, item)
            out.append(item)
        return _Splice(out)
    raise WrongTypeError("unsyntax-splicing", "a list of syntax", value)


def syntax_rebuild(original: Any, elements: Any, tail: Any = False) -> Syntax:
    """Rebuild a compound syntax node with new children, keeping the
    original's scopes, source location, and properties."""
    if not isinstance(original, Syntax):
        raise WrongTypeError("syntax-rebuild", "syntax?", original)
    out: list[Syntax] = []
    for element in to_list(elements):
        if isinstance(element, _Splice):
            out.extend(element.items)
        elif isinstance(element, Syntax):
            out.append(element)
        else:
            out.append(qs_coerce(original, element))
    if tail is not False and tail is not None:
        tail_stx = tail if isinstance(tail, Syntax) else qs_coerce(original, tail)
        e: Any = ImproperList(tuple(out), tail_stx)
    else:
        e = tuple(out)
    return Syntax(e, original.scopes, original.srcloc, original.props)


#: the kernel primitives that expanded templates call
PRIMITIVE_SPECS = {
    "qs-coerce": (qs_coerce, 2, 2),
    "qs-splice": (qs_splice, 1, 1),
    "syntax-rebuild": (syntax_rebuild, 2, 3),
}

_UNSYNTAX = "unsyntax"
_UNSYNTAX_SPLICING = "unsyntax-splicing"
_QUASISYNTAX = "quasisyntax"


def _escape_of(stx: Syntax, name: str) -> Optional[Syntax]:
    if (
        isinstance(stx.e, tuple)
        and len(stx.e) == 2
        and stx.e[0].is_identifier()
        and stx.e[0].e.name == name
    ):
        return stx.e[1]
    return None


def expand_quasisyntax(stx: Syntax) -> Syntax:
    """The transformer for ``(quasisyntax template)``."""
    if not (isinstance(stx.e, tuple) and len(stx.e) == 2):
        raise SyntaxExpansionError("quasisyntax: bad syntax", stx)
    return _build(stx.e[1], 1)


def _core_id(name: str) -> Syntax:
    # deferred import: this module is loaded while the primitive table is
    # still being built, before the kernel scope exists
    from repro.expander.kernel_scope import core_id

    return core_id(name)


def _app(*parts: Syntax) -> Syntax:
    return Syntax((_core_id("#%plain-app"), *parts))


def _quote_syntax(t: Syntax) -> Syntax:
    return Syntax((_core_id("quote-syntax"), t))


def _build(t: Syntax, depth: int) -> Syntax:
    """Code that evaluates (at phase 1) to the template's syntax object."""
    escape = _escape_of(t, _UNSYNTAX)
    if escape is not None:
        if depth == 1:
            return _app(_core_id("qs-coerce"), _quote_syntax(t), escape)
        return _rebuild_node(t, depth - 1)
    if _escape_of(t, _QUASISYNTAX) is not None:
        return _rebuild_node(t, depth + 1)
    if isinstance(t.e, (tuple, ImproperList)):
        return _rebuild_node(t, depth)
    return _quote_syntax(t)


def _rebuild_node(t: Syntax, depth: int) -> Syntax:
    if isinstance(t.e, tuple):
        items, tail = list(t.e), None
    else:
        assert isinstance(t.e, ImproperList)
        items, tail = list(t.e.items), t.e.tail
    element_exprs: list[Syntax] = []
    for item in items:
        splice = _escape_of(item, _UNSYNTAX_SPLICING)
        if splice is not None and depth == 1:
            element_exprs.append(_app(_core_id("qs-splice"), splice))
        else:
            element_exprs.append(_build(item, depth))
    elements_list = _app(_core_id("list"), *element_exprs)
    if tail is not None:
        return _app(
            _core_id("syntax-rebuild"),
            _quote_syntax(t),
            elements_list,
            _build(tail, depth),
        )
    return _app(_core_id("syntax-rebuild"), _quote_syntax(t), elements_list)
