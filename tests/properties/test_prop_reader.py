"""Property: written datums read back to equal datums (reader/printer
roundtrip), for the full value grammar."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reader import read_string_one
from repro.runtime import values as v
from repro.runtime.equality import equal
from repro.runtime.printing import write_value
from repro.syn.syntax import datum_to_value, syntax_to_datum

# -- strategies ----------------------------------------------------------------

symbols = st.from_regex(r"[a-zA-Z<>=!?*+/_-][a-zA-Z0-9<>=!?*+/_-]{0,10}", fullmatch=True).filter(
    lambda s: s not in (".", "...", "-", "+") and not _looks_numeric(s)
).map(v.Symbol)


def _looks_numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return s[0].isdigit() or (len(s) > 1 and s[0] in "+-" and s[1].isdigit())


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
