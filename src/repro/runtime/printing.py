"""Printers for object-language values: ``write`` (re-readable) and ``display``."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from repro.runtime import values as v

_CHAR_NAMES = {
    " ": "space",
    "\n": "newline",
    "\t": "tab",
    "\r": "return",
    "\0": "nul",
}

_STRING_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\t": "\\t",
    "\r": "\\r",
}


def write_float(x: float) -> str:
    if math.isnan(x):
        return "+nan.0"
    if math.isinf(x):
        return "+inf.0" if x > 0 else "-inf.0"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return repr(x)


def write_complex(x: complex) -> str:
    re = write_float(x.real)
    im = write_float(x.imag)
    if not (im.startswith("+") or im.startswith("-")):
        im = "+" + im
    return f"{re}{im}i"


def _write_seq(items: list[str]) -> str:
    return " ".join(items)


def write_symbol(name: str) -> str:
    """Render a symbol so it reads back as the same symbol.

    A name prints bare when the reader, given it bare, reads exactly one
    atom that classifies as this symbol; any other name — one that reads
    as a number or boolean, contains a delimiter, or starts like a hash
    syntax — prints in ``|...|`` bars (with ``\\|``/``\\\\`` escapes), like
    Racket's ``write``.
    """
    from repro.reader.reader import reads_as_symbol

    if reads_as_symbol(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("|", "\\|")
    return f"|{escaped}|"


def write_value(x: Any, display: bool = False) -> str:
    """Render a value; ``display`` mode omits string quotes and char syntax."""
    if x is True:
        return "#t"
    if x is False:
        return "#f"
    if x is None:
        return "#<none>"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return write_float(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, complex):
        return write_complex(x)
    if isinstance(x, str):
        if display:
            return x
        out = ['"']
        for ch in x:
            out.append(_STRING_ESCAPES.get(ch, ch))
        out.append('"')
        return "".join(out)
    if isinstance(x, v.Symbol):
        return x.name if display else write_symbol(x.name)
    if isinstance(x, v.Keyword):
        return f"#:{x.name}"
    if isinstance(x, v.Char):
        if display:
            return x.value
        name = _CHAR_NAMES.get(x.value)
        return f"#\\{name}" if name else f"#\\{x.value}"
    if x is v.NULL:
        return "()"
    if isinstance(x, v.Pair):
        parts: list[str] = []
        node: Any = x
        seen = 0
        while isinstance(node, v.Pair):
            parts.append(write_value(node.car, display))
            node = node.cdr
            seen += 1
            if seen > 1_000_000:  # pragma: no cover - cyclic-list guard
                parts.append("...")
                node = v.NULL
                break
        if node is v.NULL:
            return f"({_write_seq(parts)})"
        return f"({_write_seq(parts)} . {write_value(node, display)})"
    if isinstance(x, v.MVector):
        return f"#({_write_seq([write_value(i, display) for i in x.items])})"
    if isinstance(x, v.Box):
        return f"#&{write_value(x.value, display)}"
    if x is v.VOID:
        return "#<void>"
    if x is v.EOF:
        return "#<eof>"
    if isinstance(x, v.Values):
        return "\n".join(write_value(i, display) for i in x.items)
    if isinstance(x, v.Procedure):
        return f"#<procedure:{getattr(x, 'name', 'anonymous')}>"
    if isinstance(x, v.HashTable):
        inner = " ".join(
            f"({write_value(k, display)} . {write_value(x.get(k), display)})" for k in x.keys()
        )
        return f"#hash({inner})"
    from repro.runtime.structs import StructInstance

    if isinstance(x, StructInstance):
        if x.descriptor.transparent:
            inner = " ".join(write_value(f, display) for f in x.fields)
            return f"({x.descriptor.name}{' ' if inner else ''}{inner})"
        return f"#<{x.descriptor.name}>"
    # Syntax objects and other host values print opaquely.
    from repro.syn.syntax import Syntax

    if isinstance(x, Syntax):
        from repro.syn.syntax import syntax_to_datum, write_datum

        return f"#<syntax {write_datum(syntax_to_datum(x))}>"
    return f"#<{type(x).__name__}>"


def display_value(x: Any) -> str:
    return write_value(x, display=True)
