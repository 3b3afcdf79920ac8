"""Properties: written datums read back to equal datums (reader/printer
roundtrip), for the full value grammar; and any text over the lexical
alphabet either reads or raises a ``ReaderError``."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics.session import DiagnosticSession
from repro.errors import ReaderError
from repro.reader import read_string_all, read_string_one
from repro.runtime import values as v
from repro.runtime.equality import equal
from repro.runtime.printing import write_value
from repro.syn.syntax import datum_to_value, syntax_to_datum

# -- strategies ----------------------------------------------------------------

# any printable name: delimiters, `#` prefixes, `.`, `|` and `\` included
symbols = st.one_of(
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=10),
    st.lists(
        st.sampled_from(["#", "#%", "#|", "|#", ".", "|", "\\", "{", "}", ";", "a", "1", " "]),
        max_size=6,
    ).map("".join),
).map(v.Symbol)


integers = st.integers(min_value=-(10**12), max_value=10**12)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
rationals = st.builds(
    Fraction, st.integers(-1000, 1000), st.integers(1, 1000)
).filter(lambda f: f.denominator != 1)
strings = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
chars = st.characters(min_codepoint=33, max_codepoint=126).map(v.Char)
booleans = st.booleans()

atoms = st.one_of(integers, floats, rationals, strings, chars, booleans, symbols)


def values_strategy():
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(v.from_list),
            st.lists(children, max_size=3).map(v.MVector),
        ),
        max_leaves=12,
    )


# -- the property ----------------------------------------------------------------


@given(values_strategy())
@settings(max_examples=300, deadline=None)
def test_write_read_roundtrip(value):
    text = write_value(value)
    reread = datum_to_value(syntax_to_datum(read_string_one(text)))
    assert equal(value, reread), f"{text!r} reread as {write_value(reread)!r}"


@given(floats)
@settings(max_examples=200, deadline=None)
def test_float_roundtrip_exact(x):
    reread = datum_to_value(syntax_to_datum(read_string_one(write_value(x))))
    assert isinstance(reread, float) and (reread == x or (x != x and reread != reread))


@given(integers)
def test_integer_roundtrip(n):
    assert datum_to_value(syntax_to_datum(read_string_one(str(n)))) == n


def _same_float(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


@given(st.floats(width=64), st.floats(width=64))
@settings(max_examples=300, deadline=None)
def test_complex_roundtrip_with_infinite_and_nan_parts(re_part, im_part):
    z = complex(re_part, im_part)
    reread = datum_to_value(syntax_to_datum(read_string_one(write_value(z))))
    assert isinstance(reread, complex), f"{write_value(z)!r} reread as {reread!r}"
    assert _same_float(reread.real, z.real) and _same_float(reread.imag, z.imag)


# -- malformed input --------------------------------------------------------------

LEXICAL_ALPHABET = (
    list("()[]{}\"';`,@#|\\:.0123456789+-/e \t\r\n\f")
    + [chr(c) for c in range(ord("a"), ord("z") + 1)]
    + [chr(c) for c in range(ord("A"), ord("Z") + 1)]
)
# multi-character pieces over the same alphabet, so short texts reach
# escapes, character names and nested comments
_PIECES = ['"\\x', "\\x", "#\\u", "#\\x", "FFFFFFFFFFFFFFFFFFFFFF", "110000", "#|", "|#", "#;"]
lexical_texts = st.lists(st.sampled_from(LEXICAL_ALPHABET + _PIECES), max_size=30).map("".join)


@given(lexical_texts)
@settings(max_examples=500, deadline=None)
def test_any_text_reads_or_raises_a_reader_error(text):
    try:
        read_string_all(text)
    except ReaderError as err:
        assert err.code.startswith("R"), err.code
    # with a session the reader records every error and never raises
    session = DiagnosticSession("<string>")
    read_string_all(text, session=session)
    assert all(d.code.startswith("R") for d in session.diagnostics)
