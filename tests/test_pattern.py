"""Tests for the syntax-parse-style pattern matcher and template engine."""

from __future__ import annotations

import pytest

from repro.errors import SyntaxExpansionError
from repro.expander.pattern import compile_pattern, compile_template, syntax_parse
from repro.reader import read_string_one
from repro.runtime.values import Symbol
from repro.syn.syntax import syntax_to_datum, write_datum


def stx(text: str):
    return read_string_one(text)


def show(s) -> str:
    return write_datum(syntax_to_datum(s))


class TestBasicPatterns:
    def test_fixed_list(self):
        m = compile_pattern("(_ a b)").match(stx("(f 1 2)"))
        assert show(m["a"]) == "1" and show(m["b"]) == "2"

    def test_wrong_length_fails(self):
        assert compile_pattern("(_ a b)").match(stx("(f 1)")) is None

    def test_wildcard_binds_nothing(self):
        m = compile_pattern("(_ _ x)").match(stx("(f 1 2)"))
        assert set(m) == {"x"}

    def test_datum_literal(self):
        assert compile_pattern("(_ 42)").match(stx("(f 42)")) is not None
        assert compile_pattern("(_ 42)").match(stx("(f 43)")) is None

    def test_boolean_literal_distinct_from_integers(self):
        assert compile_pattern("(_ #t)").match(stx("(f 1)")) is None
        assert compile_pattern("(_ 1)").match(stx("(f #t)")) is None

    def test_symbol_literals(self):
        pattern = compile_pattern("(_ name : ty)", literals=(":",))
        assert pattern.match(stx("(def x : Integer)")) is not None
        assert pattern.match(stx("(def x = Integer)")) is None

    def test_non_list_fails_list_pattern(self):
        assert compile_pattern("(_ a)").match(stx("x")) is None

    def test_match_or_raise(self):
        with pytest.raises(SyntaxExpansionError):
            compile_pattern("(_ a:id)").match_or_raise(stx("(f 42)"), "who")


class TestSyntaxClasses:
    def test_id_class(self):
        pattern = compile_pattern("(_ x:id)")
        assert pattern.match(stx("(f abc)")) is not None
        assert pattern.match(stx("(f 42)")) is None

    def test_number_class(self):
        pattern = compile_pattern("(_ x:number)")
        assert pattern.match(stx("(f 1.5)")) is not None
        assert pattern.match(stx("(f abc)")) is None

    def test_integer_class(self):
        pattern = compile_pattern("(_ x:integer)")
        assert pattern.match(stx("(f 3)")) is not None
        assert pattern.match(stx("(f 3.5)")) is None

    def test_str_class(self):
        pattern = compile_pattern("(_ x:str)")
        assert pattern.match(stx('(f "s")')) is not None
        assert pattern.match(stx("(f s)")) is None

    def test_expr_class_matches_anything(self):
        pattern = compile_pattern("(_ x:expr)")
        assert pattern.match(stx("(f (a b c))")) is not None


class TestEllipsis:
    def test_simple_ellipsis(self):
        m = compile_pattern("(_ x ...)").match(stx("(f 1 2 3)"))
        assert [show(s) for s in m["x"]] == ["1", "2", "3"]

    def test_empty_ellipsis(self):
        m = compile_pattern("(_ x ...)").match(stx("(f)"))
        assert m["x"] == []

    def test_ellipsis_with_fixed_suffix(self):
        m = compile_pattern("(_ x ... last)").match(stx("(f 1 2 3)"))
        assert [show(s) for s in m["x"]] == ["1", "2"]
        assert show(m["last"]) == "3"

    def test_compound_under_ellipsis(self):
        m = compile_pattern("(_ ([x:id e] ...) body)").match(
            stx("(let ([a 1] [b 2]) a)")
        )
        assert [s.e for s in m["x"]] == [Symbol("a"), Symbol("b")]
        assert [show(s) for s in m["e"]] == ["1", "2"]

    def test_class_constraint_under_ellipsis(self):
        assert compile_pattern("(_ x:id ...)").match(stx("(f a 2)")) is None

    def test_dotted_tail(self):
        m = compile_pattern("(_ a . rest)").match(stx("(f 1 2 3)"))
        assert show(m["rest"]) == "(2 3)"

    def test_dotted_tail_improper(self):
        m = compile_pattern("(_ . rest)").match(stx("(f a . b)"))
        assert show(m["rest"]) == "(a . b)"


class TestTemplates:
    def test_substitution(self):
        tpl = compile_template("(if c t e)")
        out = tpl.fill(None, c=stx("(f)"), t=stx("1"), e=stx("2"))
        assert show(out) == "(if (f) 1 2)"

    def test_splicing(self):
        tpl = compile_template("(begin body ...)")
        out = tpl.fill(None, body=[stx("1"), stx("2")])
        assert show(out) == "(begin 1 2)"

    def test_compound_splicing(self):
        tpl = compile_template("(let-values (((x) e) ...) x ...)")
        out = tpl.fill(None, x=[stx("a"), stx("b")], e=[stx("1"), stx("2")])
        assert show(out) == "(let-values (((a) 1) ((b) 2)) a b)"

    def test_context_scopes_applied_to_introduced_names(self):
        from repro.syn.scopes import Scope
        from repro.syn.syntax import Syntax

        sc = Scope()
        ctx = Syntax(Symbol("ctx"), frozenset({sc}))
        out = compile_template("(introduced user)").fill(ctx, user=stx("u"))
        assert sc in out.e[0].scopes  # introduced gets ctx scope
        assert sc not in out.e[1].scopes  # substituted user syntax untouched

    def test_unknown_binding_rejected(self):
        tpl = compile_template("(f x)")
        with pytest.raises(ValueError):
            tpl.fill(None, not_in_template=stx("1"))

    def test_mismatched_splice_lengths_rejected(self):
        tpl = compile_template("((a b) ...)")
        with pytest.raises(ValueError):
            tpl.fill(None, a=[stx("1")], b=[stx("2"), stx("3")])

    def test_roundtrip_pattern_to_template(self):
        pattern = compile_pattern("(_ name ([x e] ...) body ...)")
        m = pattern.match(stx("(loop go ([i 0] [j 1]) (f i) (g j))"))
        tpl = compile_template("(name (x ...) (e ...) body ...)")
        assert show(tpl.fill(None, **m)) == "(go (i j) (0 1) (f i) (g j))"


class TestSyntaxParse:
    def test_clauses_in_order(self):
        clauses = [
            (compile_pattern("(_ x:number)"), lambda m: "number"),
            (compile_pattern("(_ x:id)"), lambda m: "id"),
        ]
        assert syntax_parse(stx("(f 42)"), clauses) == "number"
        assert syntax_parse(stx("(f abc)"), clauses) == "id"

    def test_no_match_raises(self):
        with pytest.raises(SyntaxExpansionError):
            syntax_parse(stx("(f 1 2)"), [(compile_pattern("(_ x)"), lambda m: m)])


class TestCacheBounds:
    """The pattern/template caches must stay bounded (they were unbounded
    dicts before) and the template cache's source-text key must not leak
    scopes between modules."""

    def test_pattern_cache_is_bounded(self):
        from repro.expander.pattern import _compile_pattern

        maxsize = _compile_pattern.cache_info().maxsize
        for i in range(maxsize + 50):
            compile_pattern(f"(_ a{i} b{i})")
        assert _compile_pattern.cache_info().currsize <= maxsize

    def test_template_cache_is_bounded(self):
        maxsize = compile_template.cache_info().maxsize
        for i in range(maxsize + 50):
            compile_template(f"(x{i} y{i})")
        assert compile_template.cache_info().currsize <= maxsize

    def test_same_pattern_different_literals_cached_separately(self):
        p_lit = compile_pattern("(_ else x)", literals=["else"])
        p_var = compile_pattern("(_ else x)")
        assert p_lit.match(stx("(f other 1)")) is None  # literal must match
        assert p_var.match(stx("(f other 1)")) is not None  # plain variable

    def test_cached_template_does_not_leak_context_between_fills(self):
        """Two modules filling the same (source-identical, hence cached)
        template with different lexical contexts must each get their own
        scopes on introduced identifiers — the audit for keying the cache
        by source text alone."""
        from repro.syn.scopes import Scope
        from repro.syn.syntax import Syntax

        tpl_a = compile_template("(introduced x)")
        tpl_b = compile_template("(introduced x)")
        assert tpl_a is tpl_b  # same cache entry

        scope_a, scope_b = Scope("module"), Scope("module")
        ctx_a = Syntax(Symbol("ctx"), frozenset({scope_a}))
        ctx_b = Syntax(Symbol("ctx"), frozenset({scope_b}))
        out_a = tpl_a.fill(ctx_a, x=stx("1"))
        out_b = tpl_b.fill(ctx_b, x=stx("2"))
        assert scope_a in out_a.e[0].scopes and scope_b not in out_a.e[0].scopes
        assert scope_b in out_b.e[0].scopes and scope_a not in out_b.e[0].scopes
