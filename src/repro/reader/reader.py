"""The datum reader: source text -> syntax objects with source locations.

One compiled regex tokenizes. Code remains only for what a regex cannot
decide: nested ``#| |#`` comments, escapes in strings and ``|symbol|``s,
character names, and unterminated tokens.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from typing import Any, Optional

from repro.errors import ReaderError
from repro.runtime.values import Char, Keyword, Symbol
from repro.syn.srcloc import NO_SRCLOC, SrcLoc
from repro.syn.syntax import ImproperList, Syntax, VectorDatum

# An atom runs to the next delimiter. `#`, `\`, `:` and the form feed are
# not delimiters; the form feed is whitespace only between tokens.
_ATOM = r"""[^()\[\]{}";'`,|\ \t\n\r]"""

# The atmosphere (whitespace and line comments) before each token, then one
# token. Every character starts some alternative, so a match never fails;
# a token's kind is the name of its group.
_TOKEN_RE = re.compile(
    rf"""[\ \t\n\r\f]*(?:;[^\n]*[\ \t\n\r\f]*)*
    (?:(?P<open>[(\[{{])
      |(?P<close>[)\]}}])
      |(?P<vector>\#\()
      |(?P<prefix>,@?|['`]|\#,@?|\#['`])
      |(?P<comment>\#;)
      |(?P<block>\#\|)
      |(?P<char>\#\\(?:{_ATOM}+|.)?)
      |(?P<keyword>\#:{_ATOM}*)
      |(?P<string>"(?P<chars>[^"\\]*(?:\\.[^"\\]*)*)"?)
      |(?P<bar>\|(?P<name>[^|\\]*(?:\\.[^|\\]*)*)\|?)
      |(?P<atom>{_ATOM}+)
      |(?P<eof>\Z))""",
    re.VERBOSE | re.DOTALL,
)
_BLOCK_RE = re.compile(r"#\||\|#")
_NEWLINE_RE = re.compile(r"\n")
_STRING_ESCAPE_RE = re.compile(r"\\(?:x([0-9a-fA-F]*);?|(.))", re.DOTALL)
_BAR_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_HEX_RE = re.compile(r"[0-9a-fA-F]+")

_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}
_CHAR_NAMES = {
    "space": " ",
    "newline": "\n",
    "tab": "\t",
    "return": "\r",
    "nul": "\0",
    "null": "\0",
    "linefeed": "\n",
}
_PREFIXES = {
    "'": "quote",
    "`": "quasiquote",
    ",": "unquote",
    ",@": "unquote-splicing",
    "#'": "quote-syntax",
    "#`": "quasisyntax",
    "#,": "unsyntax",
    "#,@": "unsyntax-splicing",
}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}

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


def _complex_part(text: str) -> float:
    special = _SPECIAL_FLOATS.get(text.lower())
    return float(text) if special is None else special


def classify_atom(text: str, loc: SrcLoc) -> Any:
    """Turn raw atom text into a number, boolean, or symbol."""
    first = text[:1]
    if first not in "+-.#" and not first.isdigit():
        return Symbol(text)  # no number or hash syntax starts this way
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


def reads_as_symbol(name: str) -> bool:
    """Whether ``name``, written bare, reads back as the symbol ``name``."""
    m = _TOKEN_RE.match(name)
    if m.lastgroup != "atom" or m.start("atom") or m.end() != len(name) or name == ".":
        return False
    try:
        return isinstance(classify_atom(name, NO_SRCLOC), Symbol)
    except ReaderError:
        return False


def _char(name: str, loc: SrcLoc) -> Char:
    if len(name) == 1:
        return Char(name)
    if name in _CHAR_NAMES:
        return Char(_CHAR_NAMES[name])
    if name[:1] in ("u", "x") and _HEX_RE.fullmatch(name, 1):
        code = int(name[1:], 16)
        if 0xD800 <= code <= 0xDFFF:
            raise ReaderError(f"#\\{name} is a surrogate, not a character", loc)
        if code <= 0x10FFFF:
            return Char(chr(code))
    raise ReaderError(f"unknown character literal: #\\{name}", loc)


#: a token: (kind, value, srcloc). The kind is a group name of `_TOKEN_RE`,
#: or "datum" for a decoded string, char, keyword or |symbol|, or "dot".
Token = tuple[str, Any, Optional[SrcLoc]]


class Reader:
    def __init__(
        self, text: str, source: str = "<string>", session: Any = None
    ) -> None:
        self.text = text
        self.source = source
        self.pos = 0
        # only a newline ends a line; a `\r` or `\f` is a column character
        self._line_starts = [0] + [m.end() for m in _NEWLINE_RE.finditer(text)]
        self._pending: Optional[Token] = None
        #: optional DiagnosticSession; when set, `read` recovers from reader
        #: errors (recording them) and resynchronizes at the next plausible
        #: top-level form instead of raising on the first problem.
        self.session = session

    def _loc(self, pos: int) -> SrcLoc:
        line = bisect_right(self._line_starts, pos)
        return SrcLoc(self.source, line, pos - self._line_starts[line - 1], pos, 1)

    def _scan(self) -> Token:
        """Match the next token. A token that raises has still consumed its
        text (an unterminated one, the rest of the input), so `_resync`
        always makes progress."""
        text = self.text
        while True:
            m = _TOKEN_RE.match(text, self.pos)
            kind = m.lastgroup
            self.pos = m.end()
            if kind == "eof":
                return kind, "", None
            value = m.group(kind)
            loc = self._loc(m.start(kind))
            if kind == "block":
                self._skip_block_comment(loc)
                continue
            if kind == "atom":
                return ("dot" if value == "." else kind), value, loc
            if kind == "string":
                chars = m.group("chars")
                if "\\" in chars:
                    chars = self._unescape(chars, m.start("chars"), loc)
                if m.end() == m.end("chars"):
                    self.pos = len(text)
                    raise ReaderError("unterminated string", loc, code="R003")
                return "datum", chars, loc
            if kind == "bar":
                if m.end() == m.end("name"):
                    self.pos = len(text)
                    raise ReaderError("unterminated |symbol|", loc, code="R004")
                return "datum", Symbol(_BAR_ESCAPE_RE.sub(r"\1", m.group("name"))), loc
            if kind == "char":
                if len(value) == 2:
                    raise ReaderError("bad character literal", loc)
                return "datum", _char(value[2:], loc), loc
            if kind == "keyword":
                return "datum", Keyword(value[2:]), loc
            return kind, value, loc

    def _skip_block_comment(self, loc: SrcLoc) -> None:
        depth = 1
        while depth:
            m = _BLOCK_RE.search(self.text, self.pos)
            if m is None:
                self.pos = len(self.text)
                raise ReaderError("unterminated block comment", loc)
            depth += 1 if m.group() == "#|" else -1
            self.pos = m.end()

    def _unescape(self, chars: str, offset: int, loc: SrcLoc) -> str:
        def decode(m: re.Match[str]) -> str:
            digits, esc = m.groups()
            if esc in _STRING_ESCAPES:
                return _STRING_ESCAPES[esc]
            code = int(digits, 16) if digits else None
            if code is not None and code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                return chr(code)
            self.pos = offset + m.end()
            if esc is not None:
                raise ReaderError(f"unknown string escape: \\{esc}", loc)
            if code is None:
                raise ReaderError("string escape \\x has no hex digits", loc)
            if code <= 0x10FFFF:
                raise ReaderError(
                    f"string escape \\x{digits} is a surrogate, not a character", loc
                )
            raise ReaderError(
                f"string escape \\x{digits} is beyond the last code point, 10FFFF", loc
            )

        return _STRING_ESCAPE_RE.sub(decode, chars)

    def _next(self) -> Token:
        if self._pending is not None:
            tok, self._pending = self._pending, None
            return tok
        return self._scan()

    def read(self) -> Optional[Syntax]:
        """Read one datum; None at end of input.

        With a diagnostic session attached, a malformed datum is recorded
        and skipped: the reader resynchronizes at the next top-level form
        and keeps reading, so one pass reports every lexical problem.
        """
        while True:
            try:
                tok = self._next()
                if tok[0] == "eof":
                    return None
                if tok[0] == "comment":
                    self._skip_datum(tok)
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
            try:
                tok = self._scan()
            except ReaderError:
                continue  # the bad region may contain further lex errors
            if tok[0] == "eof":
                return
            if tok[0] == "open" and tok[2].column == 0:
                self._pending = tok
                return

    def _skip_datum(self, tok: Token) -> None:
        if self.read() is None:
            raise ReaderError("expected datum after #;", tok[2])

    def _read_after(self, tok: Token) -> Syntax:
        kind, value, loc = tok
        if kind == "atom":
            return Syntax(classify_atom(value, loc), srcloc=loc)
        if kind == "datum":
            return Syntax(value, srcloc=loc)
        if kind == "open":
            return self._read_list(tok)
        if kind == "vector":
            return self._read_vector(tok)
        if kind == "prefix":
            inner = self.read()
            if inner is None:
                raise ReaderError(f"expected datum after {value}", loc)
            head = Syntax(Symbol(_PREFIXES[value]), srcloc=loc)
            return Syntax((head, inner), srcloc=loc.merge(inner.srcloc))
        raise ReaderError(f"unexpected `{value}`", loc)  # a closer or a dot

    def _read_list(self, open_tok: Token) -> Syntax:
        _, paren, loc = open_tok
        closer = _CLOSERS[paren]
        items: list[Syntax] = []
        tail: Optional[Syntax] = None
        while True:
            tok = self._next()
            kind = tok[0]
            if kind == "eof":
                raise ReaderError("unexpected end of input in list", loc, code="R002")
            if kind == "close":
                if tok[1] != closer:
                    raise ReaderError(
                        f"mismatched parens: `{paren}` closed by `{tok[1]}`", tok[2]
                    )
                break
            if kind == "comment":
                self._skip_datum(tok)
                continue
            if kind == "dot":
                if not items:
                    raise ReaderError("`.` at start of list", tok[2])
                tail = self.read()
                if tail is None:
                    raise ReaderError("expected datum after `.`", tok[2])
                if self._next()[:2] != ("close", closer):
                    raise ReaderError("expected one datum after `.`", tok[2])
                break
            items.append(self._read_after(tok))
        if items:
            loc = loc.merge(items[-1].srcloc)
        if tail is None:
            stx = Syntax(tuple(items), srcloc=loc)
        elif isinstance(tail.e, tuple):
            # (a . (b c)) reads as (a b c)
            stx = Syntax(tuple(items) + tail.e, srcloc=loc.merge(tail.srcloc))
        else:
            stx = Syntax(ImproperList(tuple(items), tail), srcloc=loc.merge(tail.srcloc))
        if paren == "{":
            # Racket-style: braces read as plain lists, but the shape is
            # remembered as a syntax property so dialects (e.g. infix) can
            # give brace expressions their own meaning
            stx = stx.property_put("paren-shape", "{")
        return stx

    def _read_vector(self, open_tok: Token) -> Syntax:
        loc = open_tok[2]
        items: list[Syntax] = []
        while True:
            tok = self._next()
            kind = tok[0]
            if kind == "eof":
                raise ReaderError("unexpected end of input in vector", loc, code="R002")
            if kind == "close":
                break
            if kind == "comment":
                self._skip_datum(tok)
                continue
            if kind == "dot":
                raise ReaderError("`.` not allowed in vector", tok[2])
            items.append(self._read_after(tok))
        return Syntax(VectorDatum(tuple(items)), srcloc=loc)


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
