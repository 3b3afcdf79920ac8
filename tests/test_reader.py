"""Tests for the reader: lexical syntax -> syntax objects."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import ReaderError
from repro.reader import (
    read_module_source,
    read_string_all,
    read_string_one,
    split_lang_line,
)
from repro.runtime.printing import write_value
from repro.runtime.values import Char, Keyword, Symbol
from repro.syn.syntax import (
    ImproperList,
    Syntax,
    VectorDatum,
    syntax_to_datum,
    write_datum,
)


def datum(text: str):
    return syntax_to_datum(read_string_one(text))


class TestAtoms:
    def test_integer(self):
        assert datum("42") == 42

    def test_negative_integer(self):
        assert datum("-17") == -17

    def test_explicit_positive(self):
        assert datum("+3") == 3

    def test_float(self):
        assert datum("3.25") == 3.25

    def test_float_without_leading_digit(self):
        assert datum(".5") == 0.5

    def test_float_exponent(self):
        assert datum("1e3") == 1000.0

    def test_negative_exponent(self):
        assert datum("2.5e-2") == 0.025

    def test_rational(self):
        assert datum("1/3") == Fraction(1, 3)

    def test_rational_normalizes_to_integer(self):
        value = datum("4/2")
        assert value == 2 and isinstance(value, int)

    def test_rational_zero_denominator_rejected(self):
        with pytest.raises(ReaderError):
            datum("1/0")

    def test_complex(self):
        assert datum("2.0+2.0i") == complex(2.0, 2.0)

    def test_complex_negative_imaginary(self):
        assert datum("1.5-0.5i") == complex(1.5, -0.5)

    def test_pure_imaginary(self):
        assert datum("+2.0i") == complex(0.0, 2.0)

    def test_complex_with_infinite_or_nan_part(self):
        assert datum("1.0+inf.0i") == complex(1.0, float("inf"))
        assert datum("+inf.0+1.0i") == complex(float("inf"), 1.0)
        assert datum("-inf.0i") == complex(0.0, float("-inf"))
        z = datum("1.0-nan.0i")
        assert z.real == 1.0 and z.imag != z.imag
        assert datum("inf.0i") == Symbol("inf.0i")  # an unsigned part is no number

    def test_inf(self):
        assert datum("+inf.0") == float("inf")
        assert datum("-inf.0") == float("-inf")

    def test_nan(self):
        value = datum("+nan.0")
        assert value != value

    def test_booleans(self):
        assert datum("#t") is True
        assert datum("#f") is False
        assert datum("#true") is True
        assert datum("#false") is False

    def test_symbol(self):
        assert datum("hello") is Symbol("hello")

    def test_symbol_with_special_characters(self):
        assert datum("list->vector") is Symbol("list->vector")
        assert datum("set!") is Symbol("set!")
        assert datum("<=") is Symbol("<=")

    def test_hash_percent_symbol(self):
        assert datum("#%plain-app") is Symbol("#%plain-app")

    def test_minus_is_a_symbol(self):
        assert datum("-") is Symbol("-")

    def test_keyword(self):
        assert datum("#:mode") is Keyword("mode")

    def test_string(self):
        assert datum('"hello world"') == "hello world"

    def test_string_escapes(self):
        assert datum(r'"a\nb\tc\"d\\e"') == 'a\nb\tc"d\\e'

    def test_string_hex_escape(self):
        assert datum(r'"\x41;"') == "A"

    def test_string_hex_escape_ends_at_the_last_hex_digit(self):
        assert datum(r'"\x41 b"') == "A b"
        assert datum(r'"\x41\x42;c"') == "ABc"

    @pytest.mark.parametrize(
        "text", [r'"\x"', r'"\xZZ;"', r'"\x110000;"', r'"\xFFFFFFFFFFFFFFFFFFFFFF;"']
    )
    def test_bad_hex_escape_is_a_reader_error(self, text):
        with pytest.raises(ReaderError) as exc_info:
            read_string_all("x " + text, source="f.rkt")
        assert exc_info.value.code == "R001"
        assert str(exc_info.value.srcloc) == "f.rkt:1:2"

    def test_backslash_at_end_of_input_is_an_unterminated_string(self):
        with pytest.raises(ReaderError) as exc_info:
            datum('"abc\\')
        assert exc_info.value.code == "R003"

    def test_unterminated_string(self):
        with pytest.raises(ReaderError):
            datum('"oops')

    def test_char(self):
        assert datum(r"#\a") == Char("a")

    def test_named_chars(self):
        assert datum(r"#\space") == Char(" ")
        assert datum(r"#\newline") == Char("\n")
        assert datum(r"#\tab") == Char("\t")

    def test_char_unicode_escape(self):
        assert datum(r"#\u41") == Char("A")

    def test_unknown_char_name(self):
        with pytest.raises(ReaderError):
            datum(r"#\bogus")

    def test_char_code_point_too_large(self):
        with pytest.raises(ReaderError) as exc_info:
            datum(r"#\uFFFFFFFFFFFFFFFFFFFFFF")
        assert exc_info.value.code == "R001"

    @pytest.mark.parametrize(
        "text", [r"#\u+41", r"#\u4_1", r"#\u0x41", r"#\x-41", r"#\uD800", r"#\xDFFF"]
    )
    def test_char_code_point_is_hex_digits_and_no_surrogate(self, text):
        """A code point is hex digits only, as Python's `int(s, 16)` is
        not (it takes a sign, `_` and a `0x` prefix), and names no
        surrogate, which no port could write."""
        with pytest.raises(ReaderError) as exc_info:
            read_string_all("x " + text, source="f.rkt")
        assert exc_info.value.code == "R001"
        assert str(exc_info.value.srcloc) == "f.rkt:1:2"

    @pytest.mark.parametrize("text", [r'"a\xD800;b"', r'"\xdfff"'])
    def test_surrogate_string_escape_is_a_reader_error(self, text):
        with pytest.raises(ReaderError) as exc_info:
            read_string_all("x " + text, source="f.rkt")
        assert exc_info.value.code == "R001"
        assert "surrogate" in str(exc_info.value)
        assert str(exc_info.value.srcloc) == "f.rkt:1:2"

    def test_code_points_next_to_the_surrogates_read(self):
        assert datum(r"#\uD7FF") == Char("\uD7FF")
        assert datum(r"#\uE000") == Char("\uE000")
        assert datum(r'"\xD7FF;\xE000;"') == "\uD7FF\uE000"


class TestCompound:
    def test_empty_list(self):
        assert datum("()") == ()

    def test_proper_list(self):
        assert datum("(1 2 3)") == (1, 2, 3)

    def test_nested_list(self):
        assert datum("((1 2) (3))") == ((1, 2), (3,))

    def test_brackets(self):
        assert datum("[1 2]") == (1, 2)

    def test_mismatched_brackets(self):
        with pytest.raises(ReaderError):
            datum("(1 2]")

    def test_dotted_pair(self):
        d = datum("(1 . 2)")
        assert isinstance(d, ImproperList)
        assert syntax_to_datum(d.items[0]) == 1
        assert syntax_to_datum(d.tail) == 2

    def test_dotted_with_list_tail_collapses(self):
        assert datum("(1 . (2 3))") == (1, 2, 3)

    def test_dot_at_start_rejected(self):
        with pytest.raises(ReaderError):
            datum("(. 1)")

    def test_two_datums_after_dot_rejected(self):
        with pytest.raises(ReaderError):
            datum("(1 . 2 3)")

    def test_vector(self):
        d = datum("#(1 2 3)")
        assert isinstance(d, VectorDatum)
        assert [syntax_to_datum(x) for x in d.items] == [1, 2, 3]

    def test_unclosed_list(self):
        with pytest.raises(ReaderError):
            datum("(1 2")

    def test_stray_close(self):
        with pytest.raises(ReaderError):
            datum(")")


class TestQuoteForms:
    def test_quote(self):
        assert write_datum(datum("'x")) == "(quote x)"

    def test_quasiquote_unquote(self):
        assert write_datum(datum("`(1 ,x)")) == "(quasiquote (1 (unquote x)))"

    def test_unquote_splicing(self):
        assert write_datum(datum("`(,@xs)")) == "(quasiquote ((unquote-splicing xs)))"

    def test_syntax_quote(self):
        assert write_datum(datum("#'x")) == "(quote-syntax x)"

    def test_quasisyntax(self):
        assert write_datum(datum("#`(f #,x)")) == "(quasisyntax (f (unsyntax x)))"


class TestComments:
    def test_line_comment(self):
        assert datum("; hi\n42") == 42

    def test_block_comment(self):
        assert datum("#| hi |# 42") == 42

    def test_nested_block_comment(self):
        assert datum("#| a #| b |# c |# 42") == 42

    def test_unterminated_block_comment(self):
        with pytest.raises(ReaderError):
            datum("#| oops")

    def test_datum_comment(self):
        assert [syntax_to_datum(s) for s in read_string_all("#;(skip me) 42")] == [42]

    def test_datum_comment_inside_list(self):
        assert datum("(1 #;2 3)") == (1, 3)


class TestSrcloc:
    def test_line_and_column(self):
        forms = read_string_all("x\n  y", source="f.rkt")
        assert forms[0].srcloc.line == 1 and forms[0].srcloc.column == 0
        assert forms[1].srcloc.line == 2 and forms[1].srcloc.column == 2
        assert forms[0].srcloc.source == "f.rkt"

    def test_srcloc_of_nested(self):
        form = read_string_one("(a (b))")
        inner = form.e[1]
        assert inner.srcloc.column == 3


class TestLangLine:
    def test_split(self):
        lang, body = split_lang_line("#lang racket\n(+ 1 2)")
        assert lang == "racket"
        assert "(+ 1 2)" in body

    def test_lang_with_slash(self):
        lang, _ = split_lang_line("#lang typed/racket\nx")
        assert lang == "typed/racket"

    def test_comments_before_lang(self):
        lang, _ = split_lang_line("; header\n\n#lang racket\nx")
        assert lang == "racket"

    def test_bom_before_lang(self):
        # files saved by BOM-writing editors start with U+FEFF; the lang
        # line must still be recognized
        lang, body = split_lang_line("\ufeff#lang racket\n(+ 1 2)")
        assert lang == "racket"
        assert "(+ 1 2)" in body

    def test_bom_module_reads_end_to_end(self):
        lang, forms = read_module_source("\ufeff#lang racket\n(define x 1)")
        assert lang == "racket"
        assert len(forms) == 1

    def test_no_lang(self):
        lang, body = split_lang_line("(+ 1 2)")
        assert lang is None

    def test_trailing_line_comment(self):
        # `#lang typed ; my notes` — the comment is not part of the name
        lang, body = split_lang_line("#lang typed ; my notes\n(+ 1 2)")
        assert lang == "typed"
        assert "(+ 1 2)" in body

    def test_trailing_comment_without_space(self):
        lang, _ = split_lang_line("#lang racket;inline note\nx")
        assert lang == "racket"

    def test_crlf_line_ending(self):
        # CRLF files split on "\n" leave the "\r" behind on the lang line
        lang, body = split_lang_line("#lang racket\r\n(+ 1 2)\r\n")
        assert lang == "racket"
        assert "(+ 1 2)" in body

    def test_trailing_spaces(self):
        lang, _ = split_lang_line("#lang racket   \t\nx")
        assert lang == "racket"

    def test_comment_and_crlf_combined(self):
        lang, _ = split_lang_line("#lang racket ; note\r\nx")
        assert lang == "racket"

    def test_garbage_after_name_still_rejected(self):
        lang, _ = split_lang_line("#lang racket extra-token\nx")
        assert lang is None

    def test_read_module_source(self):
        lang, forms = read_module_source("#lang racket\n(+ 1 2)\n(* 3 4)")
        assert lang == "racket"
        assert len(forms) == 2

    def test_missing_lang_raises(self):
        with pytest.raises(ReaderError):
            read_module_source("(+ 1 2)")

    def test_body_line_numbers_preserved(self):
        _lang, forms = read_module_source("#lang racket\n\n(+ 1 2)")
        assert forms[0].srcloc.line == 3


class TestMultipleDatums:
    def test_read_all(self):
        assert [syntax_to_datum(s) for s in read_string_all("1 2 3")] == [1, 2, 3]

    def test_read_one_rejects_extra(self):
        with pytest.raises(ReaderError):
            read_string_one("1 2")


class TestWriteReadsBack:
    @pytest.mark.parametrize(
        "name, written",
        [
            ("plain", "plain"),
            ("#%app", "#%app"),
            ("a#b", "a#b"),
            ("a{b", "|a{b|"),
            ("}", "|}|"),
            ("#foo", "|#foo|"),
            ("#|x", "|#\\|x|"),
            (".", "|.|"),
            ("1", "|1|"),
            ("", "||"),
            ("a b", "|a b|"),
        ],
    )
    def test_symbol_written_bare_only_when_it_reads_back(self, name, written):
        assert write_value(Symbol(name)) == written
        assert datum(written) is Symbol(name)
