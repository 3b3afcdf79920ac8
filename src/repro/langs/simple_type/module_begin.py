"""The ``simple-type`` ``#%module-begin``: the fig. 2 driver, extended with
the §5 provide rewriting, the §6.2 export indirection, and the fig. 5
optimizer pass.

The driver's shape is exactly the paper's:

1. set the ``typed-context?`` flag (§6.2 — before expanding the contents);
2. ``local-expand`` the whole module body to core forms;
3. typecheck each form in turn;
4. optimize (fig. 5);
5. rewrite provides so exported types persist and exports are protected;
6. return new core forms, avoiding a re-typecheck of the input.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.parse import core_form_of
from repro.errors import SyntaxExpansionError
from repro.expander.env import ExpandContext, current_context
from repro.expander.expander import Expander, current_expander
from repro.langs.base import expand_with, fn_macro
from repro.langs.simple_type.base_env import install_base_type_env
from repro.langs.simple_type.checker import SimpleChecker
from repro.langs.simple_type.optimize import SimpleOptimizer
from repro.langs.typed_common import env as tenv
from repro.langs.typed_common import types as ty
from repro.modules.registry import Language
from repro.runtime.values import Symbol
from repro.syn.binding import resolve
from repro.syn.syntax import Syntax, datum_to_syntax


def install_module_begin(
    lang: Language,
    checker_factory: Any = SimpleChecker,
    optimizer_factory: Any = SimpleOptimizer,
    base_env_installer: Any = install_base_type_env,
) -> None:
    """Install a fig. 2-style typed ``#%module-begin`` on ``lang``.

    ``optimizer_factory(ctx)`` builds the compilation's optimizer, or
    returns None to skip the optimizer pass.
    """

    @fn_macro(lang, "#%module-begin")
    def module_begin(stx: Syntax, lang: Language) -> Syntax:
        ctx = current_context()
        expander = current_expander()

        # §6.2: flag this compilation as typed, in the fresh store. Untyped
        # compilations never run this code, so they can never see #t.
        tenv.typed_context_flag(ctx)[0] = True
        base_env_installer(ctx)

        # fig. 2: fully expand the module body to core forms
        pmb = expand_with(
            lang, "(#%plain-module-begin form ...)", form=list(stx.e[1:])
        )
        core = expander.local_expand(pmb, "module-begin")

        # fig. 2: typecheck each form in turn. The checker records every
        # failing form in the compilation's diagnostic session; stop here
        # (before the optimizer, which assumes well-typed input) if any form
        # failed, reporting all of them at once.
        from repro.observe.recorder import current_recorder

        rec = current_recorder()
        checker = checker_factory(ctx)
        with rec.span("typecheck", ctx.module_path):
            checker.check_module(list(core.e[1:]))
        ctx.diagnostics.raise_if_errors()

        # fig. 5: the type-driven optimizer
        optimizer = optimizer_factory(ctx)
        if optimizer is not None:
            with rec.span("optimize", ctx.module_path):
                body = [optimizer.optimize_module_form(form) for form in core.e[1:]]
        else:
            body = list(core.e[1:])

        # §5 + §6.2: rewrite provides
        body = _rewrite_provides(body, ctx, lang, checker)

        # construct the output module from new core forms, avoiding a
        # re-expansion of the typechecked code (the driver still traverses
        # it, but define-syntaxes/begin-for-syntax are marked as processed)
        return expand_with(lang, "(#%plain-module-begin form ...)", form=body)


def _rewrite_provides(
    body: list[Syntax], ctx: ExpandContext, lang: Language, checker: Any
) -> list[Syntax]:
    """Rewrite each provided binding per §5 (type persistence) and §6.2
    (contract/plain indirection chosen by the client's typed-context? flag).
    """
    out: list[Syntax] = []
    extra: list[Syntax] = []
    for form in body:
        if core_form_of(form, 0) != "#%provide":
            out.append(form)
            continue
        new_specs: list[Syntax] = []
        specs: list[Syntax] = []
        for spec in form.e[1:]:
            if (
                isinstance(spec.e, tuple)
                and len(spec.e) == 1
                and spec.e[0].is_identifier()
                and spec.e[0].e.name == "all-defined"
            ):
                specs.extend(ctx.defined_names.values())
            else:
                specs.append(spec)
        for spec in specs:
            rewritten = _rewrite_one_provide(spec, ctx, lang, extra)
            if rewritten is not None:
                new_specs.append(rewritten)
        if new_specs:
            out.append(expand_with(lang, "(#%provide spec ...)", spec=new_specs))
    return out + extra


def _rewrite_one_provide(
    spec: Syntax, ctx: ExpandContext, lang: Language, extra: list[Syntax]
) -> Optional[Syntax]:
    if spec.is_identifier():
        internal, external_name = spec, spec.e.name
    elif (
        isinstance(spec.e, tuple)
        and len(spec.e) == 3
        and spec.e[0].is_identifier()
        and spec.e[0].e.name == "rename"
    ):
        internal, external_name = spec.e[1], spec.e[2].e.name
    else:
        raise SyntaxExpansionError("provide: unsupported spec in typed module", spec)

    binding = resolve(internal, 0)
    if binding is None:
        raise SyntaxExpansionError(
            f"provide: unbound identifier {internal.e}", spec
        )
    from repro.expander.env import TransformerMeaning

    if isinstance(ctx.meaning_of(binding), TransformerMeaning):
        # §6.3: "Typed Racket currently prevents macros defined in typed
        # modules from escaping into untyped modules" — their expansions
        # could reference internals not protected by contracts.
        raise SyntaxExpansionError(
            f"provide: macros may not be provided from a typed module "
            f"({internal.e})",
            spec,
        )
    t = tenv.type_table(ctx).get(binding.key())
    if t is None:
        # an untyped value binding: leave the spec alone
        return spec

    ser = datum_to_syntax(None, ty.serialize(t))
    scopes = internal.scopes
    defensive = Syntax(Symbol(f"defensive-{external_name}"), scopes, internal.srcloc)
    indirection = Syntax(
        Symbol(f"typed-export-{external_name}"), scopes, internal.srcloc
    )
    external = Syntax(Symbol(external_name), scopes, internal.srcloc)

    # the §5 declaration: persist the export's type into every client
    # compilation's environment
    extra.append(
        expand_with(
            lang,
            "(begin-for-syntax (#%plain-app add-type! (quote-syntax n) (quote ser)))",
            n=internal,
            ser=ser,
        )
    )
    # §6.2 stage 1: the defensive (contract-protected) variant
    from repro.langs.simple_type.forms import boundary_loc_args

    extra.append(
        expand_with(
            lang,
            "(define-values (defensive)"
            " (#%plain-app contract (#%plain-app type->contract (quote ser))"
            "  n (quote typed-module) (quote untyped-client) locarg ...))",
            defensive=defensive,
            ser=ser,
            n=internal,
            locarg=boundary_loc_args(lang, internal),
        ).property_put("typed-ignore", True)
    )
    # §6.2 stage 2: the indirection macro, choosing by the client
    # compilation's typed-context? flag at expansion time
    extra.append(
        expand_with(
            lang,
            "(define-syntaxes (indirection)"
            " (#%plain-lambda (use)"
            "  (if (#%plain-app identifier? use)"
            "      (if (#%plain-app typed-context?) (quote-syntax n) (quote-syntax defensive))"
            "      (#%plain-app datum->syntax use"
            "       (#%plain-app cons"
            "        (if (#%plain-app typed-context?) (quote-syntax n) (quote-syntax defensive))"
            "        (#%plain-app cdr (#%plain-app syntax-e use)))))))",
            indirection=indirection,
            n=internal,
            defensive=defensive,
        )
    )
    # §6.2 stage 3: provide the indirection under the original name
    return expand_with(
        lang, "(rename indirection external)", indirection=indirection, external=external
    )
