"""Tests for syntax objects: scopes, properties, conversions, bindings."""

from __future__ import annotations

import pytest

from repro.errors import AmbiguousBindingError
from repro.reader import read_string_one
from repro.runtime.values import NULL, Pair, Symbol
from repro.syn.binding import (
    LocalBinding,
    ModuleBinding,
    bind,
    bound_identifier_eq,
    resolve,
)
from repro.syn.scopes import Scope
from repro.syn.syntax import (
    Syntax,
    datum_to_syntax,
    datum_to_value,
    syntax_to_datum,
    syntax_to_list,
)


def ident(name: str, *scopes: Scope) -> Syntax:
    return Syntax(Symbol(name), frozenset(scopes))


class TestScopeOperations:
    def test_add_scope_recursive(self):
        sc = Scope()
        stx = read_string_one("(a (b c))").add_scope(sc)
        assert sc in stx.scopes
        assert sc in stx.e[1].e[0].scopes

    def test_flip_is_involution(self):
        sc = Scope()
        stx = read_string_one("(a b)")
        flipped_twice = stx.flip_scope(sc).flip_scope(sc)
        assert flipped_twice.scopes == stx.scopes
        assert flipped_twice.e[0].scopes == stx.e[0].scopes

    def test_flip_adds_when_absent(self):
        sc = Scope()
        assert sc in ident("x").flip_scope(sc).scopes

    def test_flip_removes_when_present(self):
        sc = Scope()
        assert sc not in ident("x", sc).flip_scope(sc).scopes

    def test_remove_scope(self):
        sc = Scope()
        assert sc not in ident("x", sc).remove_scope(sc).scopes

    def test_scope_ops_preserve_properties(self):
        sc = Scope()
        stx = ident("x").property_put("key", "value")
        assert stx.add_scope(sc).property_get("key") == "value"
        assert stx.flip_scope(sc).property_get("key") == "value"


class TestProperties:
    def test_put_get(self):
        stx = ident("x").property_put("type-annotation", "Integer")
        assert stx.property_get("type-annotation") == "Integer"

    def test_get_missing_returns_default(self):
        assert ident("x").property_get("absent") is None
        assert ident("x").property_get("absent", 42) == 42

    def test_put_is_functional(self):
        original = ident("x")
        original.property_put("k", 1)
        assert original.property_get("k") is None

    def test_independent_keys(self):
        stx = ident("x").property_put("a", 1).property_put("b", 2)
        assert stx.property_get("a") == 1 and stx.property_get("b") == 2


class TestConversions:
    def test_datum_to_syntax_uses_context_scopes(self):
        sc = Scope()
        ctx = ident("ctx", sc)
        stx = datum_to_syntax(ctx, (Symbol("f"), 1))
        assert sc in stx.scopes and sc in stx.e[0].scopes

    def test_datum_to_syntax_preserves_existing_syntax(self):
        sc = Scope()
        inner = ident("inner")  # no scopes
        stx = datum_to_syntax(ident("ctx", sc), [Symbol("f"), inner])
        assert stx.e[1] is inner

    def test_syntax_to_list(self):
        stx = read_string_one("(a b c)")
        items = syntax_to_list(stx)
        assert [i.e for i in items] == [Symbol("a"), Symbol("b"), Symbol("c")]

    def test_syntax_to_list_on_atom_is_none(self):
        assert syntax_to_list(ident("x")) is None

    def test_datum_to_value_builds_pairs(self):
        value = datum_to_value(syntax_to_datum(read_string_one("(1 2)")))
        assert isinstance(value, Pair)
        assert value.car == 1 and value.cdr.car == 2 and value.cdr.cdr is NULL

    def test_datum_to_value_improper(self):
        value = datum_to_value(syntax_to_datum(read_string_one("(1 . 2)")))
        assert value.car == 1 and value.cdr == 2


class TestBindingResolution:
    def test_resolve_simple(self):
        sc = Scope()
        binding = LocalBinding(Symbol("x"))
        bind(Symbol("x"), frozenset({sc}), binding)
        assert resolve(ident("x", sc)) is binding

    def test_unbound_returns_none(self):
        assert resolve(ident("nope")) is None

    def test_subset_rule(self):
        outer, inner = Scope(), Scope()
        b_outer = LocalBinding(Symbol("x"))
        bind(Symbol("x"), frozenset({outer}), b_outer)
        # reference with extra scopes still sees outer binding
        assert resolve(ident("x", outer, inner)) is b_outer

    def test_shadowing_prefers_larger_scope_set(self):
        outer, inner = Scope(), Scope()
        b_outer = LocalBinding(Symbol("x"))
        b_inner = LocalBinding(Symbol("x"))
        bind(Symbol("x"), frozenset({outer}), b_outer)
        bind(Symbol("x"), frozenset({outer, inner}), b_inner)
        assert resolve(ident("x", outer, inner)) is b_inner
        assert resolve(ident("x", outer)) is b_outer

    def test_binding_with_more_scopes_invisible(self):
        sc = Scope()
        bind(Symbol("x"), frozenset({sc}), LocalBinding(Symbol("x")))
        assert resolve(ident("x")) is None

    def test_ambiguity_detected(self):
        a, b = Scope(), Scope()
        bind(Symbol("x"), frozenset({a}), LocalBinding(Symbol("x")))
        bind(Symbol("x"), frozenset({b}), LocalBinding(Symbol("x")))
        with pytest.raises(AmbiguousBindingError):
            resolve(ident("x", a, b))

    def test_same_binding_not_ambiguous(self):
        a, b = Scope(), Scope()
        binding = ModuleBinding("m", Symbol("x"))
        bind(Symbol("x"), frozenset({a}), binding)
        bind(Symbol("x"), frozenset({b}), ModuleBinding("m", Symbol("x")))
        assert resolve(ident("x", a, b)) == binding

    def test_module_binding_key_stability(self):
        assert ModuleBinding("m", Symbol("x")).key() == ModuleBinding(
            "m", Symbol("x")
        ).key()
        assert ModuleBinding("m", Symbol("x")).key() != ModuleBinding(
            "n", Symbol("x")
        ).key()


class TestBoundIdentifierEq:
    def test_same_symbol_same_scopes(self):
        sc = Scope()
        assert bound_identifier_eq(ident("x", sc), ident("x", sc))

    def test_different_scopes(self):
        assert not bound_identifier_eq(ident("x", Scope()), ident("x", Scope()))

    def test_different_symbols(self):
        sc = Scope()
        assert not bound_identifier_eq(ident("x", sc), ident("y", sc))
