"""Compile-time environments and the per-compilation context.

An :class:`ExpandContext` is created for each module compilation. It holds:

- ``meanings`` — what each binding means at compile time (variable or macro
  transformer);
- ``phase1_ns`` — the module's **fresh compile-time store** (§2.3: "each
  module is compiled with a fresh store");
- ``stores`` — named compile-time state for language libraries (type
  environments, the ``typed-context?`` flag of §6.2, ...). Because the whole
  context is fresh per compilation, "mutations to state created during one
  compilation do not affect the results of other compilations";
- bookkeeping for requires, provides, and replayable phase-1 declarations
  (the §5 mechanism for separate compilation).

``current_context()`` exposes the active context to phase-1 primitives such
as a typed language's ``add-type!``.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SyntaxExpansionError
from repro.syn.binding import Binding
from repro.syn.scopes import Scope

if TYPE_CHECKING:
    from repro.core.namespace import Namespace
    from repro.expander.expander import Expander
    from repro.modules.registry import ModuleRegistry
    from repro.syn.syntax import Syntax


class Meaning:
    __slots__ = ()


class VariableMeaning(Meaning):
    __slots__ = ()

    def __repr__(self) -> str:
        return "#<meaning:variable>"


VARIABLE = VariableMeaning()


class TransformerMeaning(Meaning):
    """A macro: ``value`` is a Python callable or an object-language closure."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return "#<meaning:transformer>"


@dataclass(slots=True)
class ProvideSpec:
    external: str
    internal_id: "Syntax"
    phase: int = 0


class ExpandContext:
    def __init__(
        self,
        module_path: str,
        registry: "ModuleRegistry",
    ) -> None:
        from repro.core.namespace import Namespace
        from repro.diagnostics.session import DiagnosticSession

        self.module_path = module_path
        self.registry = registry
        #: the compilation's one expander, while it runs
        self.expander: Optional["Expander"] = None
        #: per-compilation diagnostic collector (multi-error recovery)
        self.diagnostics = DiagnosticSession(module_path, registry.sources)
        #: binding keys of definitions that failed to expand; downstream
        #: layers (the typecheckers) treat references to them as the bottom
        #: type instead of piling up cascading errors
        self.poisoned: set[Any] = set()
        self.meanings: dict[Any, Meaning] = {}
        self.module_scope: Scope = Scope("module")
        self.phase1_ns: "Namespace" = registry.make_phase1_namespace(module_path)
        #: compile-time stores for language libraries, keyed by library name
        self.stores: dict[str, Any] = {}
        #: modules required at phase 0, in order
        self.requires: list[str] = []
        #: provide specs accumulated from #%provide forms
        self.provides: list[ProvideSpec] = []
        #: replayable phase-1 declarations (see modules.registry.SyntaxDecl)
        self.syntax_decls: list[Any] = []
        #: modules already visited during this compilation
        self.visited: set[str] = set()
        #: use-site scopes introduced per active definition context
        self.use_site_scopes: list[set[Scope]] = []
        #: definitions seen so far (module level), for duplicate detection
        self.defined_names: dict[str, "Syntax"] = {}
        #: explicit module-level imports, for conflict detection:
        #: (name, phase, binder scopes) -> (binding, module it comes from)
        self.imports: dict[tuple[str, int, frozenset], tuple[Binding, str]] = {}

    # -- meanings ---------------------------------------------------------

    def meaning_of(self, binding: Binding) -> Meaning:
        return self.meanings.get(binding.key(), VARIABLE)

    def set_meaning(self, binding: Binding, meaning: Meaning) -> None:
        self.meanings[binding.key()] = meaning

    def eval_phase1(self, core: Any) -> Any:
        """Run a phase-1 core expression in this compilation's store."""
        from repro.core.compile import Compiler

        compiler = Compiler(self.phase1_ns, inline=self.registry.inline_primitives)
        return compiler.compile_expr(core, None, False)(None)

    # -- language-library stores -------------------------------------------

    def store(self, key: str, make: Callable[[], Any]) -> Any:
        """Get (or create) a named compile-time store for a language library."""
        if key not in self.stores:
            self.stores[key] = make()
        return self.stores[key]


#: stack of active expansion contexts (innermost last), *context-local* so
#: concurrent compilations on different threads each see only their own
#: stack — a process-global list here let thread B's pop_context remove
#: thread A's innermost context mid-expansion
_CONTEXT_STACK: "contextvars.ContextVar[Optional[list[ExpandContext]]]" = (
    contextvars.ContextVar("repro_expand_contexts", default=None)
)


def _context_stack() -> list[ExpandContext]:
    stack = _CONTEXT_STACK.get()
    if stack is None:
        stack = []
        _CONTEXT_STACK.set(stack)
    return stack


def push_context(ctx: ExpandContext) -> None:
    _context_stack().append(ctx)


def pop_context() -> None:
    _context_stack().pop()


def peek_context() -> Optional[ExpandContext]:
    """The innermost active expansion context, or None outside a compile."""
    stack = _CONTEXT_STACK.get()
    return stack[-1] if stack else None


def current_context() -> ExpandContext:
    stack = _CONTEXT_STACK.get()
    if not stack:
        raise SyntaxExpansionError(
            "no expansion context active (compile-time primitive used at runtime?)"
        )
    return stack[-1]


def current_expander() -> "Expander":
    """The expander of the innermost compile in progress on this thread
    (``local-expand`` and typed ``#%module-begin`` expand with it)."""
    ctx = peek_context()
    if ctx is None or ctx.expander is None:
        raise SyntaxExpansionError("local-expand: not currently expanding")
    return ctx.expander
