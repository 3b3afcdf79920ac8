"""Scopes and scope sets — the hygiene mechanism of the expander.

We use the sets-of-scopes model (Flatt, POPL 2016), the modern formulation of
the Racket macro expander that the paper relies on. Every syntax object
carries a set of scopes; every binding is recorded, together with the scope set
of its binder, on the newest scope of that set; a reference resolves to the
binding whose scope set is the largest subset of the reference's scopes.
"""

from __future__ import annotations

import itertools
import sys
from typing import FrozenSet


class Scope:
    """A unique token added to syntax by a binding form or macro expansion.

    ``kind`` is purely informational (useful in error messages and debugging):
    ``module``, ``macro`` (introduction scopes), ``use-site``, ``local``
    (binding forms), ``lang`` (a language library's anchor scope).

    ``token`` is the scope's *persistent identity*: normally ``None``, it is
    assigned when the scope is first serialized into a compiled artifact
    (see :mod:`repro.modules.cache`) so that separately loaded artifacts can
    agree on scope identity across process boundaries. Scopes compare and
    hash by object identity; tokens only name them in the artifact format.

    ``bindings`` maps ``(symbol, phase)`` to the ``(other scopes, binding)``
    entries whose newest scope this is (see :func:`repro.syn.binding.bind`);
    ``None`` until the first binding lands here.

    ``bulk`` is a whole export table imported on this scope, as a
    ``(other scopes, BulkImport)`` pair (see
    :func:`repro.syn.binding.bind_bulk`): a module scope's ``#lang``
    import, or a language anchor scope's exports. ``None`` elsewhere.
    """

    __slots__ = ("id", "kind", "token", "bindings", "bulk", "__weakref__")
    #: atomic id source (``next()`` is safe under the GIL; the old
    #: ``_counter += 1`` could mint duplicate ids on concurrent threads)
    _counter = itertools.count(1)

    def __init__(self, kind: str = "local") -> None:
        self.id = next(Scope._counter)
        # interned: kinds land in pickled artifacts, and byte-identical
        # serialization needs every equal kind to be one string object
        # (pickle memoizes by identity) whether the scope was built from a
        # source literal or reconstructed from an artifact
        self.kind = sys.intern(kind)
        self.token: "str | None" = None
        self.bindings: "dict | None" = None
        self.bulk: "tuple | None" = None

    def __repr__(self) -> str:
        return f"#<scope:{self.kind}:{self.id}>"

    def __lt__(self, other: "Scope") -> bool:
        return self.id < other.id


ScopeSet = FrozenSet[Scope]

EMPTY_SCOPES: ScopeSet = frozenset()


def add_scope(scopes: ScopeSet, scope: Scope) -> ScopeSet:
    return scopes | {scope}


def remove_scope(scopes: ScopeSet, scope: Scope) -> ScopeSet:
    return scopes - {scope}


def flip_scope(scopes: ScopeSet, scope: Scope) -> ScopeSet:
    """Add the scope if absent, remove it if present.

    Flipping is how macro-introduction scopes work: the expander flips the
    introduction scope on the macro's input and again on its output, so only
    syntax *introduced* by the transformer (absent from the input) ends up
    carrying the scope.
    """
    if scope in scopes:
        return scopes - {scope}
    return scopes | {scope}
