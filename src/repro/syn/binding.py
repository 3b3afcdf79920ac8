"""Bindings, stored on the scopes that can reach them.

A *binding* is what an identifier resolves to. Each binding is recorded on
one scope of its binder's scope set (see :func:`bind`) under
``(symbol, phase)``. Resolution of a reference finds all entries whose scope
set is a subset of the reference's scopes and picks the one with the largest
scope set; if no single candidate's scopes are a superset of every other
candidate's, the reference is ambiguous (a hygiene error). A binding lives
exactly as long as its scope.

Two binding flavours exist:

- :class:`LocalBinding` — introduced by ``#%plain-lambda``, ``let-values``,
  etc. Identity-based; fully-expanded programs refer to locals through these
  unique objects, which is why the paper's typechecker can use an
  identifier-keyed table "without having to reimplement variable renaming or
  environments" (§4.3).
- :class:`ModuleBinding` — a module-level definition or import. Keyed by
  ``(module path, symbol, phase)`` so the key is *stable across separate
  compilations* — the property §5 relies on to persist type environments.
"""

from __future__ import annotations

import itertools
import operator
import sys
from typing import Any, Optional

from repro.errors import AmbiguousBindingError, UnboundIdentifierError
from repro.runtime.values import Symbol
from repro.syn.scopes import EMPTY_SCOPES, ScopeSet
from repro.syn.syntax import Syntax


class Binding:
    __slots__ = ()

    def key(self) -> Any:
        raise NotImplementedError


class LocalBinding(Binding):
    __slots__ = ("name", "uid")
    #: uid source; itertools.count().__next__ is atomic under the GIL, so
    #: concurrent Runtimes on different threads never mint colliding uids
    #: (the old ``_counter += 1`` read-modify-write could)
    _counter = itertools.count(1)

    def __init__(self, name: Symbol) -> None:
        self.name = name
        self.uid = next(LocalBinding._counter)

    def key(self) -> Any:
        return ("local", self.uid)

    def __reduce__(self):
        # A deserialized LocalBinding takes a *fresh* uid: a uid minted in
        # the storing process could collide with one minted here, and keys
        # like ("local", uid) index compile-time tables. Pickle's memo still
        # deserializes each distinct object exactly once, so references
        # within one artifact keep sharing one binding.
        return (LocalBinding, (self.name,))

    def __repr__(self) -> str:
        return f"#<local:{self.name}.{self.uid}>"


class ModuleBinding(Binding):
    __slots__ = ("module_path", "name", "phase")

    def __init__(self, module_path: str, name: Symbol, phase: int = 0) -> None:
        # interned so every in-memory occurrence of a module path is one
        # string object — pickle's identity memo then shares it, keeping
        # artifact bytes identical whether the binding was built natively
        # or unpickled from a dependency's artifact
        self.module_path = sys.intern(module_path)
        self.name = name
        self.phase = phase

    def key(self) -> Any:
        return ("module", self.module_path, self.name.name, self.phase)

    def __repr__(self) -> str:
        return f"#<module-binding:{self.module_path}:{self.name}>"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, ModuleBinding) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class CoreFormBinding(Binding):
    """A binding for one of the ~20 core syntactic forms of fig. 1."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def key(self) -> Any:
        return ("core", self.name)

    def __repr__(self) -> str:
        return f"#<core:{self.name}>"


_scope_id = operator.attrgetter("id")


def bind(name: Symbol, scopes: ScopeSet, binding: Binding, phase: int = 0) -> None:
    """Record that ``name`` with exactly ``scopes`` refers to ``binding``.

    The entry lives on the binder's newest scope (its *home*: the highest
    :attr:`Scope.id`), as in Racket's expander; a reference can only see the
    binding if it carries that scope, so :func:`resolve` looks nowhere else.
    The entry stores the binder's scopes *minus* the home: every other scope
    in it is older than the home, so a binding never keeps its home alive
    and a scope that nothing else reaches is freed by refcounting, bindings
    and all. Only the compile (or artifact load) that created a scope binds
    on it, so no lock is needed.

    A second bind with exactly the same scope set *replaces* the first, as
    in Racket: a module-level definition shadows the ``#lang`` import of
    the same name, because both are bound with the module's scope set.
    """
    if not scopes:
        raise ValueError(f"bind: {name} has no scopes to bind in")
    home = max(scopes, key=_scope_id)
    # one shared empty set, as artifact loads produce: pickling shares sets
    # by identity, so natively bound and loaded entries must agree
    rest = scopes - {home} if len(scopes) > 1 else EMPTY_SCOPES
    table = home.bindings
    if table is None:
        table = home.bindings = {}
    entries = table.setdefault((name, phase), [])
    for i, (other, _old) in enumerate(entries):
        if other == rest:
            entries[i] = (rest, binding)
            return
    entries.append((rest, binding))


def bind_identifier(ident: Syntax, binding: Binding, phase: int = 0) -> None:
    if not ident.is_identifier():
        raise ValueError(f"bind_identifier: not an identifier: {ident!r}")
    bind(ident.e, ident.scopes, binding, phase)


def resolve(ident: Syntax, phase: int = 0, exactly: bool = False) -> Optional[Binding]:
    """Resolve an identifier; None when unbound.

    Candidates are the bindings, stored on the reference's own scopes, whose
    scope sets are subsets of the reference's; the one with the largest set
    wins, and it must contain every other candidate's set unless both
    denote the same binding. ``exactly`` requires the winner's scope set to
    equal the reference's (used when checking for duplicate definitions).
    """
    ref_scopes = ident.scopes
    key = (ident.e, phase)
    candidates = []
    for home in ref_scopes:
        table = home.bindings
        if table is not None:
            entries = table.get(key)
            if entries:
                for rest, binding in entries:
                    if rest <= ref_scopes:
                        candidates.append((rest, home, binding))
    if not candidates:
        return None
    best_rest, best_home, best = max(candidates, key=lambda c: len(c[0]))
    if len(candidates) > 1:
        best_scopes = best_rest | {best_home}
        best_key = best.key()
        for rest, home, binding in candidates:
            if not (home in best_scopes and rest <= best_scopes) and binding.key() != best_key:
                raise AmbiguousBindingError(
                    f"identifier's binding is ambiguous: {ident.e}", ident
                )
    if exactly and len(best_rest) + 1 != len(ref_scopes):
        return None
    return best


def resolve_or_raise(ident: Syntax, phase: int = 0) -> Binding:
    binding = resolve(ident, phase)
    if binding is None:
        raise UnboundIdentifierError(f"unbound identifier: {ident.e}", ident)
    return binding


def free_identifier_eq(a: Syntax, b: Syntax, phase: int = 0) -> bool:
    """The paper's ``free-identifier=?``: do two identifiers refer to the
    same binding? Unbound identifiers compare by symbolic name."""
    ba = resolve(a, phase)
    bb = resolve(b, phase)
    if ba is None and bb is None:
        return a.e is b.e
    if ba is None or bb is None:
        return False
    return ba is bb or ba.key() == bb.key()


def bound_identifier_eq(a: Syntax, b: Syntax) -> bool:
    """Would ``a`` bind references to ``b``? Same symbol and same scopes."""
    return a.e is b.e and a.scopes == b.scopes
