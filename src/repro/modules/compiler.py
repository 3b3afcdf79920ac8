"""Module compilation: the front door of the tool chain.

``compile_module`` wraps a module's body in its language's
``#%module-begin`` (§2.3) and hands the whole thing to the expander; the
language's transformer has complete control from there. The fully-expanded
result is parsed into the core AST and packaged with the export table and
replayable phase-1 declarations as a :class:`CompiledModule`.
"""

from __future__ import annotations

from typing import Any

from repro.core.ast import CoreModuleBody
from repro.core.parse import core_form_of, parse_module_level_form
from repro.diagnostics.session import FATAL_ERRORS
from repro.errors import (
    CompilationFailed,
    ModuleError,
    ReproError,
    SyntaxExpansionError,
)
from repro.expander.env import ExpandContext, TransformerMeaning, pop_context, push_context
from repro.expander.expander import Expander
from repro.modules.registry import CompiledModule, Export, ModuleRegistry
from repro.runtime.values import Symbol
from repro.syn.binding import bind, resolve
from repro.syn.syntax import Syntax


def compile_module(
    registry: ModuleRegistry, path: str, lang_name: str, forms: list[Syntax]
) -> CompiledModule:
    """Compile one module, collecting *all* diagnostics before failing.

    On any error the raise happens at the end of compilation: a single
    problem re-raises its original exception (so callers keep seeing
    ``TypeCheckError`` etc.), while several problems raise one
    :class:`CompilationFailed` carrying every diagnostic.
    """
    from repro.observe.recorder import current_recorder

    lang, dialects = registry.resolve_lang_spec(lang_name)
    ctx = ExpandContext(path, registry)
    session = ctx.diagnostics
    rec = current_recorder()
    push_context(ctx)
    with rec.span("compile", path):
        try:
            ctx.expander = expander = Expander(ctx)
            scopes = frozenset({ctx.module_scope})

            # The language's exports form the module's base environment (§2.3),
            # at phase 0 and — like `#lang racket`'s for-syntax self-import — at
            # phase 1, so transformer bodies can use the language's own forms.
            for name, export in lang.exports.items():
                sym = Symbol(name)
                bind(sym, scopes, export.binding, phase=0)
                bind(sym, scopes, export.binding, phase=1)
                if export.transformer is not None:
                    ctx.set_meaning(export.binding, TransformerMeaning(export.transformer))
            for name, export in registry.kernel_exports.items():
                if name not in lang.exports:
                    bind(Symbol(name), scopes, export.binding, phase=1)

            if dialects:
                # dialects rewrite the whole body on reader output — before
                # module scopes are added and before any macro expansion —
                # so their diagnostics point at pre-rewrite source
                from repro.dialects import apply_dialects

                forms = apply_dialects(dialects, forms, path, session)
                session.raise_if_errors()

            body = [f.add_scope(ctx.module_scope) for f in forms]
            srcloc = forms[0].srcloc if forms else None
            mb_id = Syntax(Symbol("#%module-begin"), scopes, srcloc or Syntax(Symbol("x")).srcloc)
            whole = Syntax((mb_id, *body), scopes, mb_id.srcloc)

            if "#%module-begin" not in lang.exports:
                raise ModuleError(
                    f"language {lang_name} does not provide #%module-begin"
                )
            try:
                with rec.span("expand", path):
                    expanded = expander.expand_expr(whole, 0)
                if core_form_of(expanded, 0) != "#%plain-module-begin":
                    raise SyntaxExpansionError(
                        "module expansion did not produce #%plain-module-begin", expanded
                    )
            except CompilationFailed:
                raise
            except ReproError as err:
                session.add_exception(err)
                session.raise_if_errors()
                raise  # pragma: no cover - raise_if_errors always raises here

            body_forms = []
            with rec.span("parse", path):
                for item in expanded.e[1:]:
                    parsed = parse_module_level_form(item, 0)
                    if parsed is not None:
                        body_forms.append(parsed)

            exports: dict[str, Export] = {}
            provides = []
            for spec in ctx.provides:
                if spec.external == "*all-defined*":
                    from repro.expander.env import ProvideSpec

                    provides.extend(
                        ProvideSpec(name, ident, spec.phase)
                        for name, ident in ctx.defined_names.items()
                    )
                else:
                    provides.append(spec)
            for spec in provides:
                try:
                    binding = resolve(spec.internal_id, spec.phase)
                    if binding is None:
                        raise SyntaxExpansionError(
                            f"provide: unbound identifier: {spec.internal_id.e}",
                            spec.internal_id,
                        )
                except FATAL_ERRORS:
                    raise
                except ReproError as err:
                    session.add_exception(err)
                    continue
                meaning = ctx.meaning_of(binding)
                transformer = None
                if isinstance(meaning, TransformerMeaning) and callable(meaning.value):
                    # Python-implemented transformers can be embedded directly;
                    # object-language transformers are re-created in each client
                    # compilation by replaying this module's SyntaxDecls.
                    transformer = meaning.value
                exports[spec.external] = Export(spec.external, binding, transformer)

            session.raise_if_errors()
            return CompiledModule(
                path=path,
                language=lang_name,
                requires=list(ctx.requires),
                body=CoreModuleBody(body_forms),
                exports=exports,
                syntax_decls=list(ctx.syntax_decls),
            )
        finally:
            # the expander refers back to ctx: drop the cycle with the compile
            ctx.expander = None
            pop_context()
