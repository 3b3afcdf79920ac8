"""Tests for syntax objects: scopes, properties, conversions, bindings."""

from __future__ import annotations

import pickle
import random
import sys
import threading

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
from repro.syn.scopes import Scope, add_scope, flip_scope, remove_scope
from repro.syn.syntax import (
    ImproperList,
    Syntax,
    VectorDatum,
    datum_to_syntax,
    datum_to_value,
    syntax_to_datum,
    syntax_to_list,
    write_datum,
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


# --- an eager reference for the lazy scope operations ----------------------
#
# A reference node is (kind, scopes, payload): kind "atom" holds the datum,
# "list" and "vector" a list of children, "dotted" a pair (items, tail).


def ref_map(node, fn):
    """The old eager semantics: ``fn`` applied to every scope set below."""
    kind, scopes, payload = node
    if kind == "atom":
        new = payload
    elif kind == "dotted":
        new = ([ref_map(c, fn) for c in payload[0]], ref_map(payload[1], fn))
    else:
        new = [ref_map(c, fn) for c in payload]
    return (kind, fn(scopes), new)


def ref_child(node, i):
    kind, _, payload = node
    if kind == "dotted":
        items, tail = payload
        return items[i] if i < len(items) else tail
    return payload[i]


def stx_child(stx, i):
    e = stx.e
    if isinstance(e, ImproperList):
        return e.items[i] if i < len(e.items) else e.tail
    if isinstance(e, VectorDatum):
        return e.items[i]
    return e[i]


def ref_arity(node):
    kind, _, payload = node
    if kind == "atom":
        return 0
    if kind == "dotted":
        return len(payload[0]) + 1
    return len(payload)


def random_tree(rng, pool, depth=0):
    """A syntax tree and its reference twin."""
    scopes = frozenset(rng.sample(pool, rng.randint(0, 3)))
    kind = rng.choice(["atom", "atom", "list", "list", "dotted", "vector"])
    if depth >= 3 or kind == "atom":
        datum = rng.choice([Symbol("x"), Symbol("y"), 7, "s", 1.5])
        return Syntax(datum, scopes), ("atom", scopes, datum)
    n = rng.randint(1 if kind == "dotted" else 0, 3)
    pairs = [random_tree(rng, pool, depth + 1) for _ in range(n)]
    items = tuple(p[0] for p in pairs)
    refs = [p[1] for p in pairs]
    if kind == "list":
        return Syntax(items, scopes), ("list", scopes, refs)
    if kind == "vector":
        return Syntax(VectorDatum(items), scopes), ("vector", scopes, refs)
    tail, tail_ref = random_tree(rng, pool, depth + 1)
    return Syntax(ImproperList(items, tail), scopes), ("dotted", scopes, (refs, tail_ref))


def assert_same(stx, ref):
    kind, scopes, payload = ref
    assert stx.scopes == scopes
    e = stx.e
    if kind == "atom":
        assert e == payload and not isinstance(e, (tuple, ImproperList, VectorDatum))
        return
    expected = {"list": tuple, "vector": VectorDatum, "dotted": ImproperList}[kind]
    assert type(e) is expected
    for i in range(ref_arity(ref)):
        assert_same(stx_child(stx, i), ref_child(ref, i))


class TestLazyScopes:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_operations_match_eager_reference(self, seed):
        rng = random.Random(seed)
        pool = [Scope() for _ in range(4)]
        ops = {
            "add": (lambda stx, sc: stx.add_scope(sc), add_scope),
            "remove": (lambda stx, sc: stx.remove_scope(sc), remove_scope),
            "flip": (lambda stx, sc: stx.flip_scope(sc), flip_scope),
        }
        live = [random_tree(rng, pool)]
        for _ in range(30):
            stx, ref = rng.choice(live)
            # walk to a random subtree; reading `e` on the way forces the
            # nodes on the path and leaves the rest of the tree pending
            while ref_arity(ref) and rng.random() < 0.5:
                i = rng.randrange(ref_arity(ref))
                stx, ref = stx_child(stx, i), ref_child(ref, i)
            lazy_op, eager_op = ops[rng.choice(sorted(ops))]
            sc = rng.choice(pool)
            live.append((lazy_op(stx, sc), ref_map(ref, lambda s: eager_op(s, sc))))
        for stx, ref in live:
            assert_same(stx, ref)

    def test_flip_twice_reuses_the_datum(self):
        sc = Scope()
        stx = read_string_one("(a (b c) #(d) (e . f))")
        assert stx.flip_scope(sc).flip_scope(sc).e is stx.e

    def test_push_shares_one_new_scope_set_among_equal_children(self):
        sc = Scope()
        children = read_string_one("(a b c d)").add_scope(sc).e
        assert len({id(child.scopes) for child in children}) == 1

    def test_threads_forcing_one_node_see_one_datum(self):
        sc = Scope()
        base = read_string_one("(" + " ".join(f"(x{i} y)" for i in range(2000)) + ")")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                lazy = base.add_scope(sc)
                barrier = threading.Barrier(4, timeout=30)
                seen = []

                def force():
                    barrier.wait()
                    seen.append(lazy.e)

                threads = [threading.Thread(target=force) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(seen) == 4
                assert all(e is seen[0] for e in seen)
                assert lazy.e is seen[0]
        finally:
            sys.setswitchinterval(interval)

    def test_pickle_of_lazy_node_equals_pickle_of_forced_twin(self):
        a, b = Scope(), Scope()
        base = read_string_one("(define (f x . r) #(x (g r)) 'q)")

        def build():
            return base.add_scope(a).flip_scope(b).e[2].remove_scope(a)

        lazy, twin = build(), build()
        syntax_to_datum(twin)  # forces every node of the twin
        lazy_bytes, twin_bytes = pickle.dumps(lazy, 4), pickle.dumps(twin, 4)
        assert lazy_bytes == twin_bytes
        loaded = pickle.loads(lazy_bytes)
        assert type(loaded) is Syntax
        assert write_datum(syntax_to_datum(loaded)) == write_datum(syntax_to_datum(twin))
        # an unpickled node's empty props fold into the shared empty dict
        # again under a scope operation, as in a fresh node
        assert loaded.add_scope(a).props is Syntax(Symbol("x")).props


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

    def test_rebinding_same_scope_set_replaces(self):
        # a module-level definition shadows the #lang import of its name
        outer, other = Scope(), Scope()
        b_first = LocalBinding(Symbol("x"))
        b_second = LocalBinding(Symbol("x"))
        b_other = LocalBinding(Symbol("x"))
        bind(Symbol("x"), frozenset({outer}), b_first)
        bind(Symbol("x"), frozenset({outer, other}), b_other)
        bind(Symbol("x"), frozenset({outer}), b_second)
        assert resolve(ident("x", outer)) is b_second
        assert resolve(ident("x", outer, other)) is b_other
        assert len(outer.bindings[(Symbol("x"), 0)]) == 1

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
