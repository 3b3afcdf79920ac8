"""Module registry: languages, compiled modules, and namespaces.

A *language* here is exactly the paper's notion (§2.3): "a library that
provides ... a set of bindings ... which constitute the base environment of
modules written in the language, and a binding named ``#%module-begin``".
Language libraries are Python packages built on the same syntax-object API
that object-language macros use.

A :class:`CompiledModule` is the persistent result of compilation: the
phase-0 core body, the export table, and the **replayable phase-1
declarations** (:class:`SyntaxDecl`). Visiting a compiled module during a
client's compilation replays those declarations into the client's fresh
compile-time store — the §5 mechanism ("include code in the resulting module
that populates the type environment every time the module is required").
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.diagnostics.session import DiagnosticSession
from repro.errors import ModuleError, ReproError
from repro.reader import lang_line
from repro.expander.core_forms import CORE_FORMS
from repro.expander.quasisyntax import expand_quasisyntax
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.values import Primitive, Symbol
from repro.syn.binding import Binding, CoreFormBinding, ModuleBinding, bind

if TYPE_CHECKING:
    from repro.core.ast import CoreModuleBody
    from repro.core.namespace import Namespace
    from repro.expander.env import ExpandContext

KERNEL_PATH = "#%kernel"


def canonical_path(filename: str) -> str:
    """The one canonical registry key for an on-disk module file.

    ``realpath`` collapses symlinks and relative spellings
    (``./m.rkt``, ``sub/../m.rkt``), ``normcase`` collapses case on
    case-insensitive filesystems. Without this the same file reached two
    ways registered — and instantiated — twice (``abspath`` alone keeps
    symlinks distinct). The import hook (:mod:`repro.importer`) relies on
    this being a pure function of the file's identity.

    The result is interned: artifact serialization depends on every
    occurrence of a module path within one pickling being the *same*
    string object (pickle shares via identity memoization), which is what
    makes artifacts byte-identical whether a dependency was compiled
    in-process or loaded from another worker's artifact."""
    import os
    import sys

    return sys.intern(os.path.normcase(os.path.realpath(filename)))


class Export:
    """One exported name of a module or language."""

    __slots__ = ("name", "binding", "transformer")

    def __init__(self, name: str, binding: Binding, transformer: Any = None) -> None:
        self.name = name
        self.binding = binding
        #: Python callable / object closure for macros provided directly by a
        #: Python-implemented language; None for plain variables and for
        #: object-language macros (whose transformers are installed by
        #: replaying the defining module's SyntaxDecls).
        self.transformer = transformer

    def __repr__(self) -> str:
        kind = "macro" if self.transformer is not None else "value"
        return f"#<export {self.name} ({kind})>"


class SyntaxDecl:
    """A phase-1 declaration replayed whenever the module is visited."""

    def replay(self, ctx: "ExpandContext") -> None:
        raise NotImplementedError


class DefineSyntaxesDecl(SyntaxDecl):
    """An object-language ``define-syntaxes``: re-evaluate the compiled
    right-hand side in the visiting compilation's fresh phase-1 store."""

    def __init__(self, bindings: list[ModuleBinding], core: Any, py_value: Any = None) -> None:
        self.bindings = bindings
        self.core = core  # CoreExpr or None
        self.py_value = py_value  # pre-built transformer (e.g. syntax-rules)

    def replay(self, ctx: "ExpandContext") -> None:
        from repro.expander.env import TransformerMeaning

        if self.py_value is not None:
            values = [self.py_value]
        else:
            from repro.runtime.values import Values

            result = ctx.eval_phase1(self.core)
            values = list(result.items) if isinstance(result, Values) else [result]
        if len(values) != len(self.bindings):
            raise ModuleError(
                f"define-syntaxes: expected {len(self.bindings)} values, got {len(values)}"
            )
        for binding, value in zip(self.bindings, values):
            ctx.set_meaning(binding, TransformerMeaning(value))


class ForSyntaxDecl(SyntaxDecl):
    """A ``begin-for-syntax`` body: run for effect in the visiting store."""

    def __init__(self, core: Any) -> None:
        self.core = core  # CoreExpr

    def replay(self, ctx: "ExpandContext") -> None:
        ctx.eval_phase1(self.core)


class CompiledModule:
    def __init__(
        self,
        path: str,
        language: str,
        requires: list[str],
        body: "CoreModuleBody",
        exports: dict[str, Export],
        syntax_decls: list[SyntaxDecl],
    ) -> None:
        self.path = path
        self.language = language
        self.requires = requires
        self.body = body
        self.exports = exports
        self.syntax_decls = syntax_decls
        #: the pyc backend's code-object unit (:class:`repro.core.pyc.PycUnit`),
        #: generated on demand and persisted with the artifact; None until the
        #: module is compiled under (or upgraded for) the pyc backend
        self.pyc: Optional[Any] = None

    def __getstate__(self) -> dict:
        # the lowering analysis memo (repro.core.lower) keys lambdas by
        # id(node), which is meaningless in another process — recompute
        # after unpickling instead of persisting stale keys
        state = dict(self.__dict__)
        state.pop("_analysis", None)
        return state

    def __setstate__(self, state: dict) -> None:
        import sys

        self.__dict__.update(state)
        # re-intern paths (see canonical_path): keeps pickle identity
        # sharing — and hence artifact bytes — equal between natively
        # compiled and artifact-loaded dependency graphs
        self.path = sys.intern(self.path)
        self.requires = [sys.intern(r) for r in self.requires]

    def __repr__(self) -> str:
        return f"#<compiled-module {self.path}>"


class Language:
    """A language: a base environment plus a ``#%module-begin``.

    Each language owns an *anchor scope* in which all of its exports are
    bound; syntax built with the language's :attr:`anchor` as lexical context
    therefore resolves introduced identifiers to the language's own bindings
    (plus the kernel). This plays the role that a Racket language module's
    own lexical context plays for the syntax templates in its transformers.
    """

    def __init__(
        self,
        name: str,
        exports: Optional[dict[str, Export]] = None,
        *,
        dialects: tuple[str, ...] = (),
    ) -> None:
        from repro.syn.scopes import Scope

        self.name = name
        self.path = f"#%lang:{name}"
        #: dialect names this language implies (see repro.dialects); the
        #: registry stacks these before any dialects named with ``+`` on
        #: the ``#lang`` line
        self.dialect_names: tuple[str, ...] = tuple(dialects)
        self.exports: dict[str, Export] = {}
        self.scope = Scope(f"lang:{name}")
        self._anchor: Any = None
        if exports:
            for export_name, export in exports.items():
                self.export(export_name, export.binding, export.transformer)

    @property
    def anchor(self) -> Any:
        """A syntax object carrying this language's scope plus the core scope."""
        if self._anchor is None:
            from repro.expander.kernel_scope import CORE_SCOPE
            from repro.syn.syntax import Syntax

            self._anchor = Syntax(
                Symbol("#%lang-anchor"), frozenset({self.scope, CORE_SCOPE})
            )
        return self._anchor

    def export(self, name: str, binding: Binding, transformer: Any = None) -> None:
        self.exports[name] = Export(name, binding, transformer)
        scopes = frozenset({self.scope})
        sym = Symbol(name)
        bind(sym, scopes, binding, phase=0)
        bind(sym, scopes, binding, phase=1)

    def export_macro(self, name: str, transformer: Callable[..., Any]) -> None:
        self.export(name, ModuleBinding(self.path, Symbol(name)), transformer)

    def inherit(self, other: "Language", *, exclude: tuple[str, ...] = ()) -> None:
        for name, export in other.exports.items():
            if name not in exclude:
                self.export(name, export.binding, export.transformer)

    def __repr__(self) -> str:
        return f"#<language {self.name}>"


def _kernel_export_table() -> Mapping[str, Export]:
    exports = {name: Export(name, binding) for name, binding in CORE_FORMS.items()}
    # `syntax-rules` is recognized specially by define-syntaxes
    for name in (*PRIMITIVES, "syntax-rules"):
        exports[name] = Export(name, ModuleBinding(KERNEL_PATH, Symbol(name)))
    # `quasisyntax` (#`) is a kernel macro, for procedural object macros
    exports["quasisyntax"] = Export(
        "quasisyntax",
        ModuleBinding(KERNEL_PATH, Symbol("quasisyntax")),
        transformer=expand_quasisyntax,
    )
    return MappingProxyType(exports)


#: everything ``#%kernel`` binds: the core forms, the primitives,
#: ``syntax-rules`` and ``quasisyntax``. The kernel scope
#: (:mod:`repro.expander.kernel_scope`) binds exactly these names.
KERNEL_EXPORTS: Mapping[str, Export] = _kernel_export_table()


class ModuleRegistry:
    """Languages + module sources + compiled modules + namespace factory."""

    def __init__(self) -> None:
        self.languages: dict[str, Language] = {}
        #: registered dialects (whole-module rewrites), parallel to languages
        self.dialects: dict[str, Any] = {}
        self.sources: dict[str, str] = {}  # path -> #lang source text
        self.compiled: dict[str, CompiledModule] = {}
        self._compiling: list[str] = []
        #: per-compilation macro-expansion step budget (None = default)
        self.expansion_fuel: Optional[int] = None
        #: which backend instantiation uses: "interp" (closure-compiling
        #: tree walk) or "pyc" (CPython code objects); see repro.core.backend
        self.backend: str = "interp"
        #: the compile profile (see ``Runtime``), part of the artifact key
        from repro.langs.typed.optimizer import ALL_RULES

        self.inline_primitives: bool = True
        self.optimizer_rules: frozenset[str] = ALL_RULES
        #: the persistent compiled-artifact cache, or None (disabled)
        self.cache: Optional[Any] = None
        #: content hash of each registered module's source text
        self._source_hashes: dict[str, str] = {}
        #: full content keys (source + transitive dependency keys), set once
        #: a module has been compiled or cache-loaded
        self._full_keys: dict[str, str] = {}
        self.kernel_exports: Mapping[str, Export] = KERNEL_EXPORTS
        #: primitive modules by path: the kernel's and those that library
        #: languages bring (:meth:`register_primitives`); every namespace
        #: this registry makes has their cells
        self.primitive_modules: dict[str, Mapping[str, Primitive]] = {
            KERNEL_PATH: PRIMITIVES
        }

    # -- registration ------------------------------------------------------

    def register_language(self, lang: Language) -> Language:
        self.languages[lang.name] = lang
        return lang

    def register_primitives(
        self, path: str, table: Mapping[str, Primitive]
    ) -> dict[str, ModuleBinding]:
        """Install ``table`` as the primitive module ``path`` and return
        the binding of each of its names, for a language to export."""
        self.primitive_modules[path] = table
        return {name: ModuleBinding(path, Symbol(name)) for name in table}

    def register_dialect(self, dialect: Any) -> Any:
        self.dialects[dialect.name] = dialect
        return dialect

    def register_module_source(self, path: str, text: str) -> None:
        """Register ``#lang`` source text under ``path``. Nothing is read
        here: :meth:`get_compiled` reads the text only when no compiled
        form of it is at hand, so reader errors surface at compile time."""
        import hashlib

        self.evict_module(path)
        self.sources[path] = text
        self._source_hashes[path] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def evict_module(self, path: str) -> None:
        """Drop a module's compiled form. Its bindings live on its scopes,
        so they go as soon as nothing else reaches them."""
        self.compiled.pop(path, None)
        self._full_keys.pop(path, None)

    def unregister(self, path: str) -> None:
        """Forget a module entirely: evict its compilation and drop its
        registered source, so registering ``path`` again compiles afresh."""
        self.evict_module(path)
        self.sources.pop(path, None)
        self._source_hashes.pop(path, None)

    def register_file(self, filename: str) -> str:
        """Register an on-disk module file under its canonical path.

        Idempotent for unchanged files: re-registering the same file (via
        any spelling — symlink, relative path, different case) with the
        same content keeps the existing registration *and* its compiled
        module, so requirers and importers sharing a namespace see one
        module instance.
        """
        path = canonical_path(filename)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        if self.sources.get(path) == text:
            return path
        self.register_module_source(path, text)
        return path

    # -- lookup / compilation ------------------------------------------------

    def language(self, name: str) -> Language:
        lang = self.languages.get(name)
        if lang is None:
            raise ModuleError(f"unknown language: {name}")
        return lang

    def dialect(self, name: str) -> Any:
        from repro.errors import DialectError

        dialect = self.dialects.get(name)
        if dialect is None:
            known = ", ".join(sorted(self.dialects)) or "none registered"
            raise DialectError(
                f"unknown dialect: {name} (known: {known})", code="D001"
            )
        return dialect

    def resolve_lang_spec(self, spec: str) -> tuple[Language, tuple[Any, ...]]:
        """Resolve a ``#lang`` line spec to a language plus dialect stack.

        An exact registered language name wins (so a language named with a
        ``+`` stays addressable); otherwise ``base+d1+d2`` names the
        ``base`` language with dialects ``d1`` and ``d2`` stacked after
        any dialects the language itself implies. Duplicates collapse to
        their first (leftmost) occurrence.
        """
        from repro.errors import DialectError

        extra: list[str] = []
        if spec in self.languages:
            lang = self.languages[spec]
        elif "+" in spec:
            head, *extra = spec.split("+")
            lang = self.language(head)
        else:
            lang = self.language(spec)
        stack: list[Any] = []
        seen: set[str] = set()
        for name in (*lang.dialect_names, *extra):
            if not name:
                raise DialectError(
                    f"malformed #lang spec: {spec!r}", code="D001"
                )
            dialect = self.dialect(name)
            if dialect.name not in seen:
                seen.add(dialect.name)
                stack.append(dialect)
        return lang, tuple(stack)

    def cache_lang_key(self, spec: str) -> str:
        """The language identity folded into artifact-cache content keys.

        A bare language keeps its plain name (artifact compatibility); any
        dialect stack — implied or ``+``-stacked — appends each dialect's
        name *and version*, so editing a dialect (and bumping its version)
        invalidates cached artifacts exactly like editing the source. A
        non-default compile profile appends a tag such as ``{no-inline}``.
        """
        _, dialects = self.resolve_lang_spec(spec)
        if dialects:
            spec = f"{spec}[{','.join(d.tag for d in dialects)}]"
        from repro.langs.typed.optimizer import ALL_RULES

        profile = [] if self.inline_primitives else ["no-inline"]
        if self.optimizer_rules != ALL_RULES:
            profile.append("rules=" + "+".join(sorted(self.optimizer_rules)))
        return f"{spec}{{{','.join(profile)}}}" if profile else spec

    @staticmethod
    def _requirer_note(requirer: Optional[str], srcloc: Any = None) -> str:
        if requirer is None:
            return ""
        if srcloc is not None:
            return f" (required by {requirer} at {srcloc})"
        return f" (required by {requirer})"

    def get_compiled(
        self,
        path: str,
        requirer: Optional[str] = None,
        srcloc: Any = None,
    ) -> CompiledModule:
        """Compile (or fetch) a module.

        A failed compile registers nothing for ``path``: its bindings live
        on its own fresh scopes, which the failure leaves unreachable, so
        re-registering fixed source compiles cleanly in the same registry.
        Dependencies that compiled successfully stay compiled.

        ``requirer``/``srcloc`` name the module (and source location) whose
        require triggered this compilation, for error messages.
        """
        cached = self.compiled.get(path)
        if cached is not None:
            return cached
        if path in self._compiling:
            cycle = " -> ".join(self._compiling + [path])
            raise ModuleError(
                f"module dependency cycle: {cycle}"
                f"{self._requirer_note(requirer, srcloc)}",
                srcloc,
                code="M003",
            )
        text = self.sources.get(path)
        if text is None:
            # maybe it's an on-disk file not yet registered
            import os

            if os.path.exists(path):
                canon = self.register_file(path)
                if canon != path:
                    # a non-canonical spelling reached us directly; compile
                    # under the one canonical key
                    return self.get_compiled(canon, requirer, srcloc)
                text = self.sources[path]
            else:
                raise ModuleError(
                    f"module not found: {path}"
                    f"{self._requirer_note(requirer, srcloc)}",
                    srcloc,
                    code="M002",
                )
        # The cache key needs only the #lang name, which takes no reader.
        # A module without a key (no #lang line, or one naming no language)
        # cannot compile; the read below reports its reader errors before
        # the language error, as with no cache.
        cache_key = None
        lang_name = lang_line.split_lang_line(text, path)[0]
        if self.cache is not None and lang_name is not None:
            try:
                # the cache identity of a module folds in its dialect stack
                # (names and versions), so artifacts compiled under
                # different dialect stacks never collide
                cache_key = self.cache_lang_key(lang_name)
            except ReproError:
                pass
        from repro.modules.compiler import compile_module
        from repro.observe.recorder import current_recorder

        rec = current_recorder()
        self._compiling.append(path)
        claim = None
        try:
            compiled = None
            if cache_key is not None:
                with rec.span("cache", f"load {path}"):
                    compiled = self.cache.load(self, path, cache_key)
                if compiled is None:
                    # wait-for-winner: claim the artifact before compiling.
                    # A concurrent context already compiling this exact
                    # content key is about to publish byte-identical
                    # artifacts — wait for it and re-load rather than
                    # duplicating the compile.
                    claim, winner_published = self.cache.claim_writer(
                        self, path, cache_key
                    )
                    if winner_published:
                        with rec.span("cache", f"load {path}"):
                            compiled = self.cache.load(self, path, cache_key)
            if compiled is None:
                # The reader recovers after errors and collects every
                # problem; a single problem re-raises the original
                # ReaderError, several raise one CompilationFailed.
                session = DiagnosticSession(path, self.sources)
                with rec.span("read", path):
                    # looked up at call time, so a wrapper installed on the
                    # module attribute sees every read
                    lang_name, forms = lang_line.read_module_source(
                        text, path, session=session
                    )
                session.raise_if_errors()
                compiled = compile_module(self, path, lang_name, forms)
                self._full_keys[path] = self._compute_full_key(
                    path, lang_name, compiled.requires
                )
                if self.backend == "pyc":
                    # generate before the store so the artifact carries the
                    # marshalled code objects and warm starts skip codegen
                    self.ensure_pyc_unit(compiled, store=False)
                if cache_key is not None:
                    with rec.span("cache", f"store {path}"):
                        self.cache.store(
                            self, path, cache_key, compiled,
                            self._full_keys[path], claim=claim,
                        )
            elif self.backend == "pyc":
                # cache hit from an interp-only (or other-Python) session:
                # upgrade the artifact in place
                self.ensure_pyc_unit(compiled)
        finally:
            if claim is not None:
                self.cache.release_writer(claim)
            self._compiling.pop()
        self.compiled[path] = compiled
        return compiled

    def compile_graph(
        self,
        paths: list[str],
        *,
        jobs: Optional[int] = None,
    ) -> Any:
        """Compile a module graph dependency-first on a worker pool
        coordinated through the artifact cache; returns a
        :class:`repro.modules.graph.GraphReport`. See
        :func:`repro.modules.graph.compile_graph`."""
        from repro.modules.graph import compile_graph

        return compile_graph(self, paths, jobs=jobs)

    def ensure_pyc_unit(self, compiled: "CompiledModule", *, store: bool = True):
        """The module's pyc code-object unit, generating it when missing or
        generated under a different CPython bytecode format.

        With ``store`` (the default), a freshly generated unit is persisted
        by re-storing the module's artifact, so the *next* process's warm
        start loads marshalled code objects and performs zero codegen.
        """
        from repro.core.pyc import PY_TAG, codegen_module

        unit = compiled.pyc
        if unit is not None and unit.py_tag == PY_TAG:
            return unit
        from repro.observe.recorder import current_recorder

        rec = current_recorder()
        with rec.span("pyc-codegen", compiled.path):
            unit = codegen_module(compiled, self.inline_primitives)
        compiled.pyc = unit
        if store and self.cache is not None:
            full_key = self._full_keys.get(compiled.path)
            if full_key is not None:
                with rec.span("cache", f"store {compiled.path}"):
                    self.cache.store(
                        self,
                        compiled.path,
                        self.cache_lang_key(compiled.language),
                        compiled,
                        full_key,
                    )
        return unit

    # -- content keys (cache invalidation) -----------------------------------

    def source_hash(self, path: str) -> str:
        """Content hash (sha256) of a module's registered source text."""
        return self._source_hashes[path]

    def full_key_of(self, path: str) -> Optional[str]:
        """The module's full content key (None until compiled/loaded)."""
        return self._full_keys.get(path)

    def set_full_key(self, path: str, key: str) -> None:
        self._full_keys[path] = key

    def _compute_full_key(self, path: str, lang: str, requires: list[str]) -> str:
        from repro.modules.cache import FORMAT_VERSION, content_hash

        dep_keys = [self._full_keys.get(dep, "?") for dep in requires]
        return content_hash(
            str(FORMAT_VERSION),
            path,
            self.cache_lang_key(lang),
            self.source_hash(path),
            *dep_keys,
        )

    def resolve_module_path(
        self,
        spec: str,
        relative_to: Optional[str] = None,
        srcloc: Any = None,
    ) -> str:
        """Resolve a require spec to a registry path.

        ``relative_to`` is the requiring module's path; unresolvable specs
        name it (and the require form's location) in the error.
        """
        import sys

        if spec in self.sources or spec in self.compiled:
            return sys.intern(spec)
        if relative_to is not None:
            import os

            base = os.path.dirname(relative_to)
            candidate = os.path.normpath(os.path.join(base, spec))
            if candidate in self.sources:
                return sys.intern(candidate)
            if os.path.exists(candidate):
                return canonical_path(candidate)
        import os

        if os.path.exists(spec):
            return canonical_path(spec)
        raise ModuleError(
            f"cannot resolve module: {spec}"
            f"{self._requirer_note(relative_to, srcloc)}",
            srcloc,
            code="M002",
        )

    # -- namespaces ---------------------------------------------------------

    def _prefill(self, ns: "Namespace") -> "Namespace":
        for path, table in self.primitive_modules.items():
            for name, prim in table.items():
                ns.cells[("module", path, name, 0)] = [prim]
            ns.instantiated[path] = True
        return ns

    def make_runtime_namespace(self) -> "Namespace":
        from repro.core.namespace import Namespace

        return self._prefill(Namespace("runtime"))

    def make_phase1_namespace(self, module_path: str) -> "Namespace":
        from repro.core.namespace import Namespace

        return self._prefill(Namespace(f"compile:{module_path}"))
