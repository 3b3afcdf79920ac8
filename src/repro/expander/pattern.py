"""A ``syntax-parse``-style pattern matcher and template engine (§2.1).

Language libraries destructure syntax with patterns written as ordinary
s-expressions and rebuild syntax with templates, mirroring the paper's use of
``syntax-parse`` and ``#'``/``#``` templates:

    pat = compile_pattern("(define: name:id : ty rhs:expr)", literals=(":",))
    m = pat.match(stx)          # -> dict | None
    m["name"], m["ty"], m["rhs"]

Pattern grammar:

- ``name:class``   — pattern variable constrained by a syntax class
                     (``id``, ``expr``, ``number``, ``integer``, ``str``,
                     ``boolean``, ``keyword``); ``expr`` matches anything.
- ``name``         — unconstrained pattern variable (unless listed in
                     ``literals``).
- ``_``            — wildcard, binds nothing.
- literal symbols  — symbols passed via ``literals=`` match that symbol
                     datum-wise (scope-insensitive, like syntax-parse's
                     ``~datum``).
- other atoms      — match by datum equality.
- ``(p ... q r)``  — a proper list; ``...`` makes the preceding sub-pattern
                     match zero or more times (variables under it bind lists;
                     nesting raises the ellipsis depth).
- ``(p . rest)``   — dotted tail; ``rest`` binds the remaining syntax.

Templates use the same notation in reverse: ``fill_template`` substitutes
pattern variables, splicing list-valued variables followed by ``...``.
Symbols not bound stay as identifiers built with the supplied lexical
context (``ctx``), which is how a language library's introduced names pick
up that library's scope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.errors import SyntaxExpansionError
from repro.reader.reader import read_string_one
from repro.runtime.values import Char, Keyword, Symbol
from repro.syn.syntax import ImproperList, Syntax, VectorDatum, syntax_to_datum

_ELLIPSIS = Symbol("...")
_WILDCARD = Symbol("_")

# --- syntax classes ---------------------------------------------------------


def _is_id(stx: Syntax) -> bool:
    return isinstance(stx.e, Symbol)


def _is_number(stx: Syntax) -> bool:
    return isinstance(stx.e, (int, float, Fraction, complex)) and not isinstance(stx.e, bool)


def _is_integer(stx: Syntax) -> bool:
    return isinstance(stx.e, int) and not isinstance(stx.e, bool)


def _is_str(stx: Syntax) -> bool:
    return isinstance(stx.e, str)


def _is_boolean(stx: Syntax) -> bool:
    return isinstance(stx.e, bool)


def _is_keyword(stx: Syntax) -> bool:
    return isinstance(stx.e, Keyword)


def _is_char(stx: Syntax) -> bool:
    return isinstance(stx.e, Char)


SYNTAX_CLASSES: dict[str, Callable[[Syntax], bool]] = {
    "id": _is_id,
    "expr": lambda stx: True,
    "number": _is_number,
    "integer": _is_integer,
    "str": _is_str,
    "boolean": _is_boolean,
    "keyword": _is_keyword,
    "char": _is_char,
}


# --- pattern AST ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PVar:
    name: str
    cls: str  # key into SYNTAX_CLASSES


@dataclass(frozen=True, slots=True)
class PWild:
    pass


@dataclass(frozen=True, slots=True)
class PLiteral:
    name: Symbol


@dataclass(frozen=True, slots=True)
class PDatum:
    value: Any


@dataclass(frozen=True, slots=True)
class PList:
    before: tuple["PatternNode", ...]
    repeated: Optional["PatternNode"]  # sub-pattern under `...`, or None
    after: tuple["PatternNode", ...]
    tail: Optional["PatternNode"]  # dotted tail pattern, or None


PatternNode = Union[PVar, PWild, PLiteral, PDatum, PList]


def _parse_pattern(stx: Syntax, literals: frozenset[str]) -> PatternNode:
    e = stx.e
    if isinstance(e, Symbol):
        if e is _WILDCARD:
            return PWild()
        if e.name in literals:
            return PLiteral(e)
        if ":" in e.name and not e.name.startswith(":") and not e.name.endswith(":"):
            base, _, cls = e.name.rpartition(":")
            if cls in SYNTAX_CLASSES:
                return PVar(base, cls)
        return PVar(e.name, "expr")
    if isinstance(e, tuple):
        return _parse_list_pattern(list(e), None, literals)
    if isinstance(e, ImproperList):
        return _parse_list_pattern(list(e.items), e.tail, literals)
    return PDatum(e)


def _parse_list_pattern(
    items: list[Syntax], tail: Optional[Syntax], literals: frozenset[str]
) -> PList:
    ellipsis_positions = [i for i, s in enumerate(items) if s.e is _ELLIPSIS]
    if len(ellipsis_positions) > 1:
        raise ValueError("pattern: at most one `...` per list level")
    tail_pat = _parse_pattern(tail, literals) if tail is not None else None
    if not ellipsis_positions:
        return PList(
            tuple(_parse_pattern(s, literals) for s in items), None, (), tail_pat
        )
    pos = ellipsis_positions[0]
    if pos == 0:
        raise ValueError("pattern: `...` must follow a sub-pattern")
    before = tuple(_parse_pattern(s, literals) for s in items[: pos - 1])
    repeated = _parse_pattern(items[pos - 1], literals)
    after = tuple(_parse_pattern(s, literals) for s in items[pos + 1 :])
    return PList(before, repeated, after, tail_pat)


def _pattern_vars(node: PatternNode, depth: int, out: dict[str, int]) -> None:
    if isinstance(node, PVar):
        out[node.name] = depth
    elif isinstance(node, PList):
        for sub in node.before:
            _pattern_vars(sub, depth, out)
        if node.repeated is not None:
            _pattern_vars(node.repeated, depth + 1, out)
        for sub in node.after:
            _pattern_vars(sub, depth, out)
        if node.tail is not None:
            _pattern_vars(node.tail, depth, out)


class Pattern:
    """A compiled pattern."""

    def __init__(self, source: str, node: PatternNode, variables: dict[str, int]) -> None:
        self.source = source
        self.node = node
        self.variables = variables  # name -> ellipsis depth

    def match(self, stx: Syntax) -> Optional[dict[str, Any]]:
        bindings: dict[str, Any] = {}
        if _match(self.node, stx, bindings):
            return bindings
        return None

    def match_or_raise(self, stx: Syntax, who: str = "syntax") -> dict[str, Any]:
        m = self.match(stx)
        if m is None:
            raise SyntaxExpansionError(f"{who}: bad syntax (expected {self.source})", stx)
        return m

    def __repr__(self) -> str:
        return f"#<pattern {self.source}>"


def compile_pattern(source: str, literals: Iterable[str] = ()) -> Pattern:
    return _compile_pattern(source, frozenset(literals))


# Compiled patterns and templates are pure data, safely shared across
# Runtimes; the bound keeps every distinct string ever compiled from
# staying resident forever.
@functools.lru_cache(maxsize=1024)
def _compile_pattern(source: str, literals: frozenset[str]) -> Pattern:
    node = _parse_pattern(read_string_one(source, "<pattern>"), literals)
    variables: dict[str, int] = {}
    _pattern_vars(node, 0, variables)
    return Pattern(source, node, variables)


def _match(node: PatternNode, stx: Syntax, bindings: dict[str, Any]) -> bool:
    if isinstance(node, PWild):
        return True
    if isinstance(node, PVar):
        if not SYNTAX_CLASSES[node.cls](stx):
            return False
        bindings[node.name] = stx
        return True
    if isinstance(node, PLiteral):
        return stx.e is node.name
    if isinstance(node, PDatum):
        e = stx.e
        if isinstance(node.value, bool) or isinstance(e, bool):
            return e is node.value
        if isinstance(node.value, Keyword):
            return e is node.value
        return type(e) is type(node.value) and e == node.value
    if isinstance(node, PList):
        return _match_list(node, stx, bindings)
    raise AssertionError(node)  # pragma: no cover


def _match_list(node: PList, stx: Syntax, bindings: dict[str, Any]) -> bool:
    e = stx.e
    if isinstance(e, tuple):
        items: list[Syntax] = list(e)
        actual_tail: Optional[Syntax] = None
    elif isinstance(e, ImproperList):
        items = list(e.items)
        actual_tail = e.tail
    else:
        return False

    min_len = len(node.before) + len(node.after)
    if node.tail is None:
        if actual_tail is not None:
            return False
        if node.repeated is None and len(items) != min_len:
            return False
    if len(items) < min_len:
        return False

    idx = 0
    for sub in node.before:
        if not _match(sub, items[idx], bindings):
            return False
        idx += 1

    if node.repeated is not None:
        n_repeat = len(items) - min_len
        if node.tail is None and actual_tail is not None:
            return False
        rep_vars: dict[str, int] = {}
        _pattern_vars(node.repeated, 0, rep_vars)
        collected: dict[str, list[Any]] = {name: [] for name in rep_vars}
        for _ in range(n_repeat):
            sub_bindings: dict[str, Any] = {}
            if not _match(node.repeated, items[idx], sub_bindings):
                return False
            for name in rep_vars:
                collected[name].append(sub_bindings.get(name))
            idx += 1
        bindings.update(collected)
    elif node.tail is not None:
        # dotted pattern: remaining items + actual tail go to the tail pattern
        rest_items = items[idx:]
        if actual_tail is None:
            rest = Syntax(tuple(rest_items), stx.scopes, stx.srcloc)
        elif rest_items:
            rest = Syntax(ImproperList(tuple(rest_items), actual_tail), stx.scopes, stx.srcloc)
        else:
            rest = actual_tail
        return _match(node.tail, rest, bindings)

    for sub in node.after:
        if not _match(sub, items[idx], bindings):
            return False
        idx += 1

    if node.tail is not None:
        if actual_tail is None:
            return False
        return _match(node.tail, actual_tail, bindings)
    return True


# --- syntax-parse convenience ------------------------------------------------


def syntax_parse(
    stx: Syntax,
    clauses: Sequence[tuple[Pattern, Callable[[dict[str, Any]], Any]]],
    who: str = "syntax",
) -> Any:
    """Try each (pattern, handler) clause in order, like ``syntax-parse``."""
    for pattern, handler in clauses:
        m = pattern.match(stx)
        if m is not None:
            return handler(m)
    raise SyntaxExpansionError(f"{who}: bad syntax", stx)


# --- templates ---------------------------------------------------------------


class Template:
    """A compiled template; ``fill`` substitutes pattern variables.

    Unbound symbols become identifiers carrying ``ctx``'s scopes (typically a
    language library's anchor context), so names a macro *introduces* resolve
    in the macro's own language — the heart of hygienic reuse.
    """

    def __init__(self, source: str, stx: Syntax) -> None:
        self.source = source
        self.stx = stx
        self.symbol_names = _collect_symbol_names(stx)

    def fill(self, ctx: Optional[Syntax], **bindings: Any) -> Syntax:
        for name in bindings:
            if name not in self.symbol_names:
                raise ValueError(
                    f"template {self.source!r} has no variable {name!r} "
                    "(note: template variable names must be valid Python "
                    "identifiers)"
                )
        return _fill(self.stx, ctx, bindings)

    def __repr__(self) -> str:
        return f"#<template {self.source}>"


def _collect_symbol_names(stx: Syntax) -> frozenset[str]:
    names: set[str] = set()

    def walk(s: Syntax) -> None:
        e = s.e
        if isinstance(e, Symbol):
            names.add(e.name)
        elif isinstance(e, tuple):
            for c in e:
                walk(c)
        elif isinstance(e, ImproperList):
            for c in e.items:
                walk(c)
            walk(e.tail)
        elif isinstance(e, VectorDatum):
            for c in e.items:
                walk(c)

    walk(stx)
    return frozenset(names)


@functools.lru_cache(maxsize=1024)
def compile_template(source: str) -> Template:
    # Keying by source text alone is sound *because compiled templates are
    # context-free*: `read_string_one` produces syntax with empty scope sets
    # and a synthetic srcloc, and every module- or language-specific part
    # (lexical context, pattern-variable values) is supplied at `fill` time.
    # Two languages sharing a template string therefore share the compiled
    # Template but can never observe each other's scopes through it — see
    # test_pattern.py::TestCacheBounds for the regression test.
    return Template(source, read_string_one(source, "<template>"))


def _to_syntax(value: Any, ctx: Optional[Syntax], where: Syntax) -> Syntax:
    if isinstance(value, Syntax):
        return value
    from repro.syn.syntax import datum_to_syntax

    return datum_to_syntax(ctx, value, where.srcloc)


def _fill(stx: Syntax, ctx: Optional[Syntax], bindings: dict[str, Any]) -> Syntax:
    e = stx.e
    if isinstance(e, Symbol):
        if e.name in bindings:
            return _to_syntax(bindings[e.name], ctx, stx)
        if ctx is not None:
            return Syntax(e, ctx.scopes, stx.srcloc, stx.props)
        return stx
    if isinstance(e, tuple):
        return Syntax(
            tuple(_fill_items(e, ctx, bindings)), stx.scopes if ctx is None else ctx.scopes,
            stx.srcloc, stx.props,
        )
    if isinstance(e, ImproperList):
        return Syntax(
            ImproperList(
                tuple(_fill_items(e.items, ctx, bindings)),
                _fill(e.tail, ctx, bindings),
            ),
            stx.scopes if ctx is None else ctx.scopes,
            stx.srcloc,
            stx.props,
        )
    return stx


def _fill_items(
    items: tuple[Syntax, ...], ctx: Optional[Syntax], bindings: dict[str, Any]
) -> list[Syntax]:
    out: list[Syntax] = []
    i = 0
    while i < len(items):
        item = items[i]
        follows_ellipsis = i + 1 < len(items) and items[i + 1].e is _ELLIPSIS
        if follows_ellipsis:
            values = _spliced_values(item, ctx, bindings)
            for value in values:
                out.append(_to_syntax(value, ctx, item))
            i += 2
        else:
            out.append(_fill(item, ctx, bindings))
            i += 1
    return out


def _spliced_values(
    item: Syntax, ctx: Optional[Syntax], bindings: dict[str, Any]
) -> list[Any]:
    """Values for ``item ...`` — item must mention >=1 list-valued variable."""
    if isinstance(item.e, Symbol) and item.e.name in bindings:
        seq = bindings[item.e.name]
        if not isinstance(seq, (list, tuple)):
            raise ValueError(
                f"template: variable {item.e.name} used with `...` is not a sequence"
            )
        return list(seq)
    # A compound sub-template under `...`: find its sequence variables and map.
    names = _template_vars(item, bindings)
    seq_names = [n for n in names if isinstance(bindings[n], (list, tuple))]
    if not seq_names:
        raise ValueError(
            f"template: `...` after {write_short(item)} but no sequence variable inside"
        )
    length = len(bindings[seq_names[0]])
    for n in seq_names[1:]:
        if len(bindings[n]) != length:
            raise ValueError("template: mismatched sequence lengths under `...`")
    out = []
    for k in range(length):
        sub_bindings = dict(bindings)
        for n in seq_names:
            sub_bindings[n] = bindings[n][k]
        out.append(_fill(item, ctx, sub_bindings))
    return out


def _template_vars(stx: Syntax, bindings: dict[str, Any]) -> list[str]:
    found: list[str] = []

    def walk(s: Syntax) -> None:
        e = s.e
        if isinstance(e, Symbol):
            if e.name in bindings and e.name not in found:
                found.append(e.name)
        elif isinstance(e, tuple):
            for c in e:
                walk(c)
        elif isinstance(e, ImproperList):
            for c in e.items:
                walk(c)
            walk(e.tail)

    walk(stx)
    return found


def write_short(stx: Syntax) -> str:
    from repro.syn.syntax import write_datum

    text = write_datum(syntax_to_datum(stx))
    return text if len(text) < 60 else text[:57] + "..."
