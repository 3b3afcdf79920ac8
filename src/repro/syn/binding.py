"""Bindings and the global binding table.

A *binding* is what an identifier resolves to. The table maps
``(symbol, phase)`` to a list of ``(scope set, binding)`` entries. Resolution
of a reference finds all entries whose scope set is a subset of the
reference's scopes and picks the one with the largest scope set; if no single
candidate's scopes are a superset of every other candidate's, the reference is
ambiguous (a hygiene error).

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

import contextvars
import itertools
import os
import sys
import threading
from typing import Any, Optional

from repro.errors import AmbiguousBindingError, UnboundIdentifierError
from repro.runtime.values import Symbol
from repro.syn.scopes import ScopeSet
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

    def __reduce__(self):
        # route unpickling through __init__, so a loaded binding's path is
        # re-interned in this process
        return (ModuleBinding, (self.module_path, self.name, self.phase))

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


#: One recorded table addition: (symbol, phase, scope set, binding). The
#: list of entries added while compiling a module is that module's *table
#: fragment* — persisted into its compiled artifact and replayed on cache
#: load, and removed again when the module is evicted (leak reclamation).
TableEntry = tuple[Symbol, int, ScopeSet, Binding]


class BindingTable:
    """The global (symbol, phase) -> [(scope set, binding)] table.

    Thread-safety (one table is shared by every Runtime in the process):

    - **Readers never lock.** :meth:`resolve` grabs a bucket reference and
      iterates it; concurrent appends are safe under the GIL, and the
      removal paths are *copy-on-write* (they build a new list and swap it
      in), so an in-flight reader keeps iterating a consistent snapshot.
    - **Writers serialize** on ``_lock`` — without it, a bucket rebuilt by
      one thread's :meth:`remove_entries` could silently drop an entry a
      second thread appended between the rebuild and the swap.
    - **Recorders are context-local.** The fragment-recorder stack lives in
      a contextvar, so two modules compiling on two threads each capture
      exactly their own additions (a process-global stack handed thread
      A's bindings to whichever thread pushed a recorder last).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[Symbol, int], list[tuple[ScopeSet, Binding]]] = {}
        #: serializes structural mutation (add/install/remove/release);
        #: reads stay lock-free
        self._lock = threading.RLock()
        #: active addition recorders, innermost last; only the innermost
        #: records, so nested module compilations each capture exactly
        #: their own additions. Context-local: each thread/task compiling
        #: concurrently sees only its own stack.
        self._recorders: "contextvars.ContextVar[Optional[list[list[TableEntry]]]]" = (
            contextvars.ContextVar("repro_table_recorders", default=None)
        )
        #: active *transaction logs*, also context-local. Unlike fragment
        #: recorders, every add/install in the dynamic extent lands in every
        #: active log (nesting included): a failed outermost compilation
        #: rolls back by removing exactly the entries it logged, never by
        #: truncating buckets to a snapshotted length (which would destroy
        #: entries a concurrent thread appended in the meantime).
        self._txn_logs: "contextvars.ContextVar[Optional[list[list[TableEntry]]]]" = (
            contextvars.ContextVar("repro_table_txn_logs", default=None)
        )

    def _recorder_stack(self) -> list[list[TableEntry]]:
        stack = self._recorders.get()
        if stack is None:
            stack = []
            self._recorders.set(stack)
        return stack

    def _txn_stack(self) -> list[list[TableEntry]]:
        stack = self._txn_logs.get()
        if stack is None:
            stack = []
            self._txn_logs.set(stack)
        return stack

    def add(self, name: Symbol, scopes: ScopeSet, binding: Binding, phase: int = 0) -> None:
        with self._lock:
            self._entries.setdefault((name, phase), []).append((scopes, binding))
        recorders = self._recorders.get()
        if recorders:
            recorders[-1].append((name, phase, scopes, binding))
        logs = self._txn_logs.get()
        if logs:
            entry = (name, phase, scopes, binding)
            for log in logs:
                log.append(entry)

    def bind_identifier(self, ident: Syntax, binding: Binding, phase: int = 0) -> None:
        if not ident.is_identifier():
            raise ValueError(f"bind_identifier: not an identifier: {ident!r}")
        self.add(ident.e, ident.scopes, binding, phase)

    def resolve(
        self, ident: Syntax, phase: int = 0, exactly: bool = False
    ) -> Optional[Binding]:
        """Resolve an identifier; None when unbound.

        ``exactly`` requires the binding's scope set to equal the reference's
        (used when checking for duplicate definitions).
        """
        entries = self._entries.get((ident.e, phase))
        if not entries:
            return None
        ref_scopes = ident.scopes
        candidates = [(s, b) for (s, b) in entries if s <= ref_scopes]
        if not candidates:
            return None
        best_scopes, best = max(candidates, key=lambda sb: len(sb[0]))
        best_key = best.key()
        for s, b in candidates:
            if not (s <= best_scopes) and b.key() != best_key:
                raise AmbiguousBindingError(
                    f"identifier's binding is ambiguous: {ident.e}", ident
                )
        if exactly and best_scopes != ref_scopes:
            return None
        return best

    # -- transactional compilation -----------------------------------------

    def snapshot(self) -> dict[tuple[Symbol, int], int]:
        """An O(keys) snapshot of the table's shape (diagnostic use only —
        rollback is transaction-log based, see :meth:`transaction`)."""
        with self._lock:
            return {key: len(entries) for key, entries in self._entries.items()}

    def transaction(self) -> "_Transaction":
        """Log every addition (add *and* install_entries) made in this
        context while active; ``rollback()`` removes exactly those entries.

        Replaces the earlier snapshot/length-truncation rollback, which was
        not safe under concurrent Runtimes: truncating a bucket to its
        snapshotted length also destroyed entries another thread appended
        after the snapshot. The log removes only this context's additions.
        """
        return _Transaction(self)

    def resolve_or_raise(self, ident: Syntax, phase: int = 0) -> Binding:
        binding = self.resolve(ident, phase)
        if binding is None:
            raise UnboundIdentifierError(f"unbound identifier: {ident.e}", ident)
        return binding

    # -- fragment recording / reclamation ----------------------------------

    def record_additions(self) -> "_Recorder":
        """Record every :meth:`add` made while the context is active.

        Used by module compilation to capture the module's table fragment:
        ``with TABLE.record_additions() as fragment: ...``. Nested recorders
        shadow outer ones, so a dependency compiled mid-way through its
        requirer records into its own fragment only.
        """
        return _Recorder(self)

    def install_entries(self, entries: list[TableEntry]) -> None:
        """Re-add a previously recorded fragment (bypassing recorders).

        Used when loading a compiled artifact: the loaded module's bindings
        must not be charged to whichever module's compilation triggered the
        load. Installed entries *are* logged to active transactions, so a
        compilation that fails after a cache load rolls the load back too.
        """
        with self._lock:
            for name, phase, scopes, binding in entries:
                self._entries.setdefault((name, phase), []).append((scopes, binding))
        logs = self._txn_logs.get()
        if logs:
            for log in logs:
                log.extend(entries)

    def remove_entries(self, entries: list[TableEntry]) -> int:
        """Remove previously recorded additions; returns how many were found.

        Entries already gone (e.g. dropped by a transactional rollback) are
        skipped silently. Buckets are rebuilt, not mutated in place, so a
        concurrent lock-free reader keeps a consistent view.
        """
        removed = 0
        with self._lock:
            for name, phase, scopes, binding in entries:
                bucket = self._entries.get((name, phase))
                if not bucket:
                    continue
                target = (scopes, binding)
                if target not in bucket:
                    continue
                kept = list(bucket)
                kept.remove(target)
                removed += 1
                if kept:
                    self._entries[(name, phase)] = kept
                else:
                    del self._entries[(name, phase)]
        return removed

    def release_scopes(self, scopes: "set | frozenset") -> int:
        """Drop every entry whose scope set intersects ``scopes``.

        The scope-set-based reclamation path: releasing a module's (or a
        whole Runtime's) scopes unbinds everything that could only ever be
        referenced through them. Returns the number of entries dropped.
        """
        if not scopes:
            return 0
        removed = 0
        with self._lock:
            for key in list(self._entries):
                bucket = self._entries[key]
                kept = [(s, b) for (s, b) in bucket if not (s & scopes)]
                removed += len(bucket) - len(kept)
                if kept:
                    self._entries[key] = kept
                else:
                    del self._entries[key]
        return removed

    def entry_count(self) -> int:
        """Total number of live entries (the leak regression metric)."""
        with self._lock:
            return sum(len(bucket) for bucket in self._entries.values())


class _Recorder:
    """Context manager yielding the list of additions made while active."""

    def __init__(self, table: BindingTable) -> None:
        self._table = table
        self.entries: list[TableEntry] = []

    def __enter__(self) -> list[TableEntry]:
        self._table._recorder_stack().append(self.entries)
        return self.entries

    def __exit__(self, *exc_info: Any) -> None:
        self._table._recorder_stack().pop()


class _Transaction:
    """Context-local log of every table addition made while active.

    ``rollback()`` removes exactly the logged entries — precise under
    concurrent Runtimes, where a shape snapshot would not be.
    """

    def __init__(self, table: BindingTable) -> None:
        self._table = table
        self.entries: list[TableEntry] = []

    def __enter__(self) -> "_Transaction":
        self._table._txn_stack().append(self.entries)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._table._txn_stack().remove(self.entries)

    def rollback(self) -> int:
        """Remove every entry this transaction logged; returns the count."""
        removed = self._table.remove_entries(self.entries)
        self.entries.clear()
        return removed


#: The single global binding table (scopes are globally unique, so sharing
#: one table across all compilations is safe — this mirrors Racket, where
#: binding information lives on the scopes themselves).
TABLE = BindingTable()

if hasattr(os, "register_at_fork"):
    # A fork (a ``compile_graph`` worker) waits for any thread mid-mutation
    # to finish, so the child inherits a consistent table and a free lock.
    os.register_at_fork(
        before=TABLE._lock.acquire,
        after_in_parent=TABLE._lock.release,
        after_in_child=TABLE._lock.release,
    )


def free_identifier_eq(a: Syntax, b: Syntax, phase: int = 0) -> bool:
    """The paper's ``free-identifier=?``: do two identifiers refer to the
    same binding? Unbound identifiers compare by symbolic name."""
    ba = TABLE.resolve(a, phase)
    bb = TABLE.resolve(b, phase)
    if ba is None and bb is None:
        return a.e is b.e
    if ba is None or bb is None:
        return False
    return ba is bb or ba.key() == bb.key()


def bound_identifier_eq(a: Syntax, b: Syntax) -> bool:
    """Would ``a`` bind references to ``b``? Same symbol and same scopes."""
    return a.e is b.e and a.scopes == b.scopes
