"""The datum reader: tokens -> syntax objects with source locations."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Optional

from repro.errors import ReaderError
from repro.reader import lexer as lx
from repro.runtime.values import Char, Keyword, Symbol
from repro.syn.srcloc import SrcLoc
from repro.syn.syntax import ImproperList, Syntax, VectorDatum

_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^[+-]?\d+/\d+$")
_FLOAT_NEEDS_POINT_RE = re.compile(
    r"^[+-]?((\d+\.\d*|\.\d+)(e[+-]?\d+)?|\d+e[+-]?\d+)$", re.IGNORECASE
)
# either part may be a signed infinity or NaN (`1.0+inf.0i`, `+nan.0-2i`)
_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|[+-](inf|nan)\.0)?"
    r"(?P<im>[+-](\d+\.?\d*|\.\d+)?(e[+-]?\d+)?|[+-](inf|nan)\.0)i$",
    re.IGNORECASE,
)

_SPECIAL_FLOATS = {
    "+inf.0": float("inf"),
    "-inf.0": float("-inf"),
    "+nan.0": float("nan"),
    "-nan.0": float("nan"),
}

_QUOTE_SYMBOLS = {
    lx.QUOTE: "quote",
    lx.QUASIQUOTE: "quasiquote",
    lx.UNQUOTE: "unquote",
    lx.UNQUOTE_SPLICING: "unquote-splicing",
    lx.SYNTAX_QUOTE: "quote-syntax",
    lx.QUASISYNTAX: "quasisyntax",
    lx.UNSYNTAX: "unsyntax",
    lx.UNSYNTAX_SPLICING: "unsyntax-splicing",
}


def _complex_part(text: str) -> float:
    special = _SPECIAL_FLOATS.get(text.lower())
    return float(text) if special is None else special


def classify_atom(text: str, loc: SrcLoc) -> Any:
    """Turn raw atom text into a number, boolean, or symbol."""
    if text in ("#t", "#true"):
        return True
    if text in ("#f", "#false"):
        return False
    if text in _SPECIAL_FLOATS:
        return _SPECIAL_FLOATS[text]
    if _INT_RE.match(text):
        return int(text)
    if _RAT_RE.match(text):
        num, den = text.split("/")
        if int(den) == 0:
            raise ReaderError(f"division by zero in literal: {text}", loc)
        value = Fraction(int(num), int(den))
        return value.numerator if value.denominator == 1 else value
    if _FLOAT_NEEDS_POINT_RE.match(text):
        return float(text)
    m = _COMPLEX_RE.match(text)
    if m:
        re_part = _complex_part(m.group("re")) if m.group("re") else 0.0
        im_text = m.group("im")
        if im_text in ("+", "-"):
            im_text += "1"
        return complex(re_part, _complex_part(im_text))
    if text.startswith("#") and not text.startswith("#%"):
        raise ReaderError(f"bad syntax: {text}", loc)
    return Symbol(text)


class Reader:
    def __init__(
        self, text: str, source: str = "<string>", session: Any = None
    ) -> None:
        from repro.diagnostics.source import SOURCES

        SOURCES.register(source, text)
        self._lexer = lx.Lexer(text, source)
        self._pending: Optional[lx.Token] = None
        self.source = source
        #: optional DiagnosticSession; when set, `read` recovers from reader
        #: errors (recording them) and resynchronizes at the next plausible
        #: top-level form instead of raising on the first problem.
        self.session = session

    def _next(self) -> lx.Token:
        if self._pending is not None:
            tok, self._pending = self._pending, None
            return tok
        return self._lexer.next_token()

    def _push_back(self, tok: lx.Token) -> None:
        assert self._pending is None
        self._pending = tok

    def read(self) -> Optional[Syntax]:
        """Read one datum; None at end of input.

        With a diagnostic session attached, a malformed datum is recorded
        and skipped: the reader resynchronizes at the next top-level form
        and keeps reading, so one pass reports every lexical problem.
        """
        while True:
            try:
                tok = self._next()
                if tok.kind == lx.EOF_TOK:
                    return None
                if tok.kind == lx.DATUM_COMMENT:
                    commented = self.read()
                    if commented is None:
                        raise ReaderError("expected datum after #;", tok.srcloc)
                    continue
                return self._read_after(tok)
            except ReaderError as err:
                if self.session is None:
                    raise
                self.session.add_exception(err)
                self._resync()

    def _resync(self) -> None:
        """Skip to a plausible top-level recovery point after an error:
        end of input, or an opening paren in column 0 (a new top-level
        form), which is pushed back for the next `read`."""
        self._pending = None
        while True:
            before = self._lexer.pos
            try:
                tok = self._lexer.next_token()
            except ReaderError:
                if self._lexer.pos == before:  # guarantee progress
                    self._lexer._advance()
                continue  # the bad region may contain further lex errors
            if tok.kind == lx.EOF_TOK:
                return
            if tok.kind == lx.LPAREN and tok.srcloc.column == 0:
                self._push_back(tok)
                return

    def _read_after(self, tok: lx.Token) -> Syntax:
        kind = tok.kind
        if kind == lx.LPAREN:
            return self._read_list(tok)
        if kind == lx.VEC_OPEN:
            return self._read_vector(tok)
        if kind == lx.RPAREN:
            raise ReaderError(f"unexpected `{tok.text}`", tok.srcloc)
        if kind == lx.DOT:
            raise ReaderError("unexpected `.`", tok.srcloc)
        if kind == lx.STRING:
            return Syntax(tok.text, srcloc=tok.srcloc)
        if kind == lx.CHAR:
            return Syntax(Char(tok.text), srcloc=tok.srcloc)
        if kind == lx.KEYWORD:
            return Syntax(Keyword(tok.text), srcloc=tok.srcloc)
        if kind in _QUOTE_SYMBOLS:
            inner = self.read()
            if inner is None:
                raise ReaderError(f"expected datum after {tok.text}", tok.srcloc)
            head = Syntax(Symbol(_QUOTE_SYMBOLS[kind]), srcloc=tok.srcloc)
            return Syntax((head, inner), srcloc=tok.srcloc.merge(inner.srcloc))
        if kind == lx.SYMBOL:
            return Syntax(Symbol(tok.text), srcloc=tok.srcloc)
        if kind == lx.ATOM:
            return Syntax(classify_atom(tok.text, tok.srcloc), srcloc=tok.srcloc)
        raise ReaderError(f"unexpected token: {tok.text}", tok.srcloc)  # pragma: no cover

    _MATCHING = {"(": ")", "[": "]", "{": "}"}

    def _read_list(self, open_tok: lx.Token) -> Syntax:
        items: list[Syntax] = []
        tail: Optional[Syntax] = None
        closer = self._MATCHING[open_tok.paren]
        while True:
            tok = self._next()
            if tok.kind == lx.EOF_TOK:
                raise ReaderError(
                    "unexpected end of input in list", open_tok.srcloc, code="R002"
                )
            if tok.kind == lx.RPAREN:
                if tok.paren != closer:
                    raise ReaderError(
                        f"mismatched parens: `{open_tok.paren}` closed by `{tok.paren}`",
                        tok.srcloc,
                    )
                break
            if tok.kind == lx.DATUM_COMMENT:
                if self.read() is None:
                    raise ReaderError("expected datum after #;", tok.srcloc)
                continue
            if tok.kind == lx.DOT:
                if not items:
                    raise ReaderError("`.` at start of list", tok.srcloc)
                tail = self.read()
                if tail is None:
                    raise ReaderError("expected datum after `.`", tok.srcloc)
                close = self._next()
                if close.kind != lx.RPAREN or close.paren != closer:
                    raise ReaderError("expected one datum after `.`", tok.srcloc)
                break
            items.append(self._read_after(tok))
        loc = open_tok.srcloc
        if items:
            loc = loc.merge(items[-1].srcloc)
        if tail is not None:
            if isinstance(tail.e, tuple):
                # (a . (b c)) reads as (a b c)
                stx = Syntax(tuple(items) + tail.e, srcloc=loc.merge(tail.srcloc))
            else:
                stx = Syntax(
                    ImproperList(tuple(items), tail), srcloc=loc.merge(tail.srcloc)
                )
        else:
            stx = Syntax(tuple(items), srcloc=loc)
        if open_tok.paren == "{":
            # Racket-style: braces read as plain lists, but the shape is
            # remembered as a syntax property so dialects (e.g. infix) can
            # give brace expressions their own meaning
            stx = stx.property_put("paren-shape", "{")
        return stx

    def _read_vector(self, open_tok: lx.Token) -> Syntax:
        items: list[Syntax] = []
        while True:
            tok = self._next()
            if tok.kind == lx.EOF_TOK:
                raise ReaderError(
                    "unexpected end of input in vector", open_tok.srcloc, code="R002"
                )
            if tok.kind == lx.RPAREN:
                break
            if tok.kind == lx.DATUM_COMMENT:
                if self.read() is None:
                    raise ReaderError("expected datum after #;", tok.srcloc)
                continue
            if tok.kind == lx.DOT:
                raise ReaderError("`.` not allowed in vector", tok.srcloc)
            items.append(self._read_after(tok))
        return Syntax(VectorDatum(tuple(items)), srcloc=open_tok.srcloc)


def read_string_all(
    text: str, source: str = "<string>", session: Any = None
) -> list[Syntax]:
    """Read every datum in ``text``.

    With a diagnostic ``session``, reader errors are collected there and
    reading continues at the next top-level form.
    """
    reader = Reader(text, source, session=session)
    out: list[Syntax] = []
    while True:
        stx = reader.read()
        if stx is None:
            return out
        out.append(stx)


def read_string_one(text: str, source: str = "<string>") -> Syntax:
    """Read exactly one datum."""
    forms = read_string_all(text, source)
    if len(forms) != 1:
        raise ReaderError(f"expected exactly one datum, found {len(forms)}")
    return forms[0]
